package dramlat

import (
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// TestParallelMatchesEvent: sweeps use the cores by running many specs at
// once, one System per goroutine, so no simulator state may be shared
// between Systems. Every spec of the matrix — every scheduler on an
// irregular cross-section of the paper's 30-SM machine and a 120-SM
// scale-up — first runs concurrently with the others, then alone; the two
// Results must be byte-identical. A mismatch means some package-level
// state (a scratch buffer, a cache, a random source) leaked between runs.
func TestParallelMatchesEvent(t *testing.T) {
	workloads := []string{"bfs", "spmv", "cfd"}
	smCounts := []int{30, 120}
	if testing.Short() {
		workloads = []string{"bfs"}
		smCounts = []int{30}
	}
	type item struct {
		name string
		spec RunSpec
		par  []byte
		err  error
	}
	var items []*item
	for _, sched := range Schedulers() {
		for _, wl := range workloads {
			for _, sms := range smCounts {
				items = append(items, &item{
					name: sched + "/" + wl + "/sm" + strconv.Itoa(sms),
					spec: RunSpec{
						Benchmark: wl, Scheduler: sched,
						Scale: 0.02, SMs: sms, WarpsPerSM: 8,
					},
				})
			}
		}
	}

	// At least two workers, so runs overlap even on a single-core host.
	workers := max(2, runtime.GOMAXPROCS(0))
	next := make(chan *item)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				var res Results
				res, it.err = Run(it.spec)
				if it.err == nil {
					it.par, it.err = json.Marshal(res)
				}
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()

	for _, it := range items {
		t.Run(it.name, func(t *testing.T) {
			if it.err != nil {
				t.Fatalf("concurrent run: %v", it.err)
			}
			res, err := Run(it.spec)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			serial, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(serial) != string(it.par) {
				t.Fatalf("results diverge\nserial:     %s\nconcurrent: %s", serial, it.par)
			}
		})
	}
}
