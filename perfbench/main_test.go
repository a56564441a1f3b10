package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dramlat"
)

// tinyOptions runs a workload at the tiny size for a fraction of a second.
func tinyOptions(t *testing.T, workload string, trace bool) *options {
	return &options{workload: workload, seed: 1, seconds: 300 * time.Millisecond, trace: trace,
		tiny: true, setups: 1, workdir: t.TempDir()}
}

// lastJSON runs the benchmark and decodes its final output line.
func lastJSON(t *testing.T, o *options) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, out.String())
	}
	return code, r, out.String()
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints and the ones BENCHMARK.json declares identical.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestTinyPassPrintsEveryMetric runs every workload at the tiny size
// and expects every end-to-end metric, non-zero, on each.
func TestTinyPassPrintsEveryMetric(t *testing.T) {
	code, r, out := lastJSON(t, tinyOptions(t, "all", false))
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Fatalf("exit %d, correct %v, failed %d\n%s", code, r.Correct, r.Failed, out)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			m, ok := r.Metrics[w+"."+d.Name]
			if !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s.%s = %+v (present %v), want a positive value in %s", w, d.Name, m, ok, d.Unit)
			}
		}
	}
	for _, d := range append(append([]metricDef(nil), tableOnly...), serviceOnly...) {
		if !strings.Contains(out, d.Name) {
			t.Errorf("no table prints %s", d.Name)
		}
	}
}

// TestTracedPassPrintsEveryLayer runs the traced mode on every workload:
// all per-layer metrics are printed and the layer shares cover every
// profile sample.
func TestTracedPassPrintsEveryLayer(t *testing.T) {
	code, r, out := lastJSON(t, tinyOptions(t, "all", true))
	if code != 0 || !r.Correct {
		t.Fatalf("exit %d, correct %v\n%s", code, r.Correct, out)
	}
	for _, w := range workloads {
		var sum float64
		for _, d := range perLayer {
			m, ok := r.Metrics[w+"."+d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s.%s missing or in the wrong unit: %+v", w, d.Name, m)
			}
			if strings.HasSuffix(d.Name, ".self_frac") {
				sum += m.Value
			}
		}
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: layer shares sum to %v, want 1", w, sum)
		}
		if r.Metrics[w+".engine.visited_ticks"].Value <= 0 {
			t.Errorf("%s: no engine counters", w)
		}
	}
}

// TestCheapestRuns checks the estimator behind the CPU-time metrics:
// each spec counts once, at its cheapest run.
func TestCheapestRuns(t *testing.T) {
	ph := phase{
		ticks:   map[string]int64{"a": 1000, "b": 3000},
		specCPU: map[string][]time.Duration{"a": {3 * time.Second, time.Second}, "b": {time.Second, 2 * time.Second}},
	}
	if got := ph.ticksPerCPUSec(); got != 2000 {
		t.Errorf("ticksPerCPUSec = %v, want 4000 ticks / 2 s = 2000", got)
	}
}

// corrupting returns a runner that simulates with dramlat.Run and then
// lets bad edit the result of the n-th call for each spec (n from 1).
func corrupting(bad func(n int, r *dramlat.Results)) runner {
	var mu sync.Mutex
	calls := map[string]int{}
	return func(spec dramlat.RunSpec) (dramlat.Results, error) {
		res, err := dramlat.Run(spec)
		mu.Lock()
		calls[spec.Hash()]++
		n := calls[spec.Hash()]
		mu.Unlock()
		bad(n, &res)
		return res, err
	}
}

func TestBadResultsFailTheRun(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		bad        func(n int, r *dramlat.Results)
	}{
		{"undrained", "did not drain", func(n int, r *dramlat.Results) { r.Drained = false }},
		{"ipc", "IPC", func(n int, r *dramlat.Results) { r.IPC *= 1.0001 }},
		{"mismatched repeat", "differ", func(n int, r *dramlat.Results) {
			if n == 2 {
				r.L2HitRate += 0.01
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tinyOptions(t, "irregular", false)
			o.runner = corrupting(tc.bad)
			code, r, out := lastJSON(t, o)
			if code != 1 || r.Correct {
				t.Fatalf("exit %d, correct %v; want a failed run\n%s", code, r.Correct, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output does not mention %q\n%s", tc.want, out)
			}
		})
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []frame
	}{
		{"sm", []frame{{"dramlat/internal/sm.(*SM).Tick", "/x/internal/sm/sm.go"}}},
		{"sampled", []frame{{"dramlat/internal/sm.(*SM).FastForward", "/x/internal/sm/fastforward.go"}}},
		{"dram", []frame{{"dramlat/internal/gddr5.Default", "/x/internal/gddr5/gddr5.go"}}},
		{"sweepd", []frame{{"dramlat/internal/sweepd/client.(*Remote).do", "/x/client.go"}}},
		{"gomap", []frame{{"internal/runtime/maps.(*Map).getWithKeySmall", ""}, {"dramlat/internal/xbar.(*Xbar).Tick", ""}}},
		{"gc", []frame{{"runtime.memclrNoHeapPointers", ""}, {"runtime.mallocgc", ""}, {"dramlat/internal/sm.New", ""}}},
		{"workload", []frame{{"math/rand.seedrand", ""}, {"math/rand.(*rngSource).Seed", ""}, {"dramlat/internal/workload.bfs", ""}}},
		{"json", []frame{{"runtime.memmove", ""}, {"encoding/json.(*encodeState).string", ""}}},
		{"net", []frame{{"syscall.Syscall", ""}}},
		{"other", []frame{{"runtime.futex", ""}, {"runtime.findRunnable", ""}}},
		{"other", nil},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestTracedRunnerRecoversPanic: a simulator panic in the traced runner
// comes back as a *dramlat.RunError, as it does from dramlat.Run, so the
// spec fails instead of the whole benchmark.
func TestTracedRunnerRecoversPanic(t *testing.T) {
	spec := simWorkloads(true)["irregular"].grid(1)[0]
	spec.Chaos = &dramlat.Faults{PanicAtCycle: 100}
	_, err := newTracer().run(spec)
	var re *dramlat.RunError
	if !errors.As(err, &re) || re.Phase != "run" {
		t.Fatalf("traced run with a forced panic returned %v, want a *dramlat.RunError from the run phase", err)
	}
}
