package dramlat

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current build")

const goldenPath = "testdata/golden.json"

// golden pins one run: the SHA-256 of json.Marshal(Results), plus a few
// headline fields so a mismatch shows what moved, not just that
// something did.
type golden struct {
	Name   string
	SHA256 string
	Ticks  int64
	IPC    float64
	GapP90 float64
}

type goldenCase struct {
	name string
	spec RunSpec
}

// goldenCases is the pinned matrix: every scheduler on an irregular
// cross-section of the paper's 30-SM machine, a 120-SM scale-up (wafcfs
// exercises the NoInterleave crossbar), and every scheduler under the
// sampled engine with windows small enough to complete several
// measure/fast-forward regions.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, sched := range Schedulers() {
		for _, wl := range []string{"bfs", "spmv", "cfd"} {
			out = append(out, goldenCase{"exact/" + sched + "/" + wl + "/sm30", RunSpec{
				Benchmark: wl, Scheduler: sched, Scale: 0.02, SMs: 30, WarpsPerSM: 8,
			}})
		}
	}
	// Every benchmark, irregular and regular, under the Fig 8 baseline
	// and the paper's full scheduler, so each input generator is pinned.
	for _, sched := range []string{"gmc", "wg-w"} {
		for _, wl := range append(IrregularNames(), RegularNames()...) {
			name := "bench/" + sched + "/" + wl + "/sm30"
			out = append(out, goldenCase{name, RunSpec{
				Benchmark: wl, Scheduler: sched, Scale: 0.02, SMs: 30, WarpsPerSM: 8,
			}})
		}
	}
	for _, sched := range []string{"gmc", "wafcfs", "wg-w"} {
		out = append(out, goldenCase{"exact/" + sched + "/bfs/sm120", RunSpec{
			Benchmark: "bfs", Scheduler: sched, Scale: 0.02, SMs: 120, WarpsPerSM: 8,
		}})
	}
	for _, sched := range Schedulers() {
		spec := sampledTinySpec()
		spec.Scheduler = sched
		out = append(out, goldenCase{"sampled/" + sched + "/spmv", spec})
	}
	return out
}

// TestGoldenResults pins Results to committed values. The engines are
// otherwise only checked against each other, so a change that moves
// every engine the same way would pass silently. An intentional change
// to simulated behaviour regenerates the file with
//
//	go test -run TestGoldenResults -update .
//
// and says so in CHANGES.md.
func TestGoldenResults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	want := map[string]golden{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		var list []golden
		if err := json.Unmarshal(b, &list); err != nil {
			t.Fatal(err)
		}
		for _, g := range list {
			want[g.Name] = g
		}
	}
	cases := goldenCases()
	got := make([]golden, len(cases))
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sampling != nil && res.Sampling.Windows < 2 {
				t.Fatalf("sampled golden completed %d windows; want >= 2", res.Sampling.Windows)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[i] = golden{Name: c.name, SHA256: hex.EncodeToString(sum[:]),
				Ticks: res.Ticks, IPC: res.IPC, GapP90: res.GapP90}
			if *updateGolden {
				return
			}
			w, ok := want[c.name]
			if !ok {
				t.Fatal("no golden entry; regenerate with -update")
			}
			if got[i] != w {
				t.Fatalf("Results moved:\n got %+v\nwant %+v", got[i], w)
			}
		})
		delete(want, c.name)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range want {
		t.Errorf("stale golden entry %q has no case; regenerate with -update", name)
	}
}
