package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dramlat"
	"dramlat/internal/sweep"
)

// runner executes one spec; dramlat.Run is the default.
type runner = func(dramlat.RunSpec) (dramlat.Results, error)

// simWorkload is one grid of specs run through a local sweep.Engine
// with no result cache, repeated until the run's time is used up.
type simWorkload struct {
	benches    []string
	scale      float64
	sms, warps int    // 0 keeps the paper's 30-SM, 32-warp machine
	engine     string // "" is the default event engine
	// sampling overrides the sampled engine's window lengths (zero
	// keeps the defaults); tiny grids need shorter windows to measure any.
	sampling dramlat.SampledOptions
}

// schedulers are the two policies every workload compares: the
// baseline GMC and the paper's warp-aware WG-W (Fig 8).
var schedulers = []string{"gmc", "wg-w"}

// simWorkloads returns the simulator workloads; tiny ones, on a 2-SM
// machine, are for tests of the benchmark itself.
func simWorkloads(tiny bool) map[string]simWorkload {
	if tiny {
		return map[string]simWorkload{
			"irregular": {benches: []string{"bfs", "spmv"}, scale: 0.02, sms: 2, warps: 4},
			"sampled": {benches: []string{"cfd", "nw"}, scale: 0.5, sms: 2, warps: 4, engine: "sampled",
				sampling: dramlat.SampledOptions{WindowCycles: 500, FastForwardCycles: 2000, WarmupCycles: 500}},
		}
	}
	// A third of the paper's 30-SM machine, with its 32 warps per SM:
	// the kernels' work scales with the SM count, so a grid pass takes
	// 4-5 s on one worker and a run measures every spec 7-9 times.
	return map[string]simWorkload{
		"irregular": {benches: dramlat.IrregularNames(), scale: 0.1, sms: 10, warps: 32},
		// Six irregular kernels long enough at scale 1 to leave the
		// sampled engine's settle prefix and measure at least a window.
		"sampled": {benches: []string{"cfd", "nw", "PVC", "SS", "sp", "sssp"}, scale: 1, sms: 10, warps: 32, engine: "sampled"},
	}
}

// grid enumerates the workload's specs; the seed reaches the program
// only as RunSpec.Seed.
func (w simWorkload) grid(seed int64) []dramlat.RunSpec {
	g := sweep.Grid{Benchmarks: w.benches, Schedulers: schedulers, Seeds: []int64{seed}, Scales: []float64{w.scale}}
	if w.sms > 0 {
		g.SMs, g.WarpsPerSM = []int{w.sms}, []int{w.warps}
	}
	specs := g.Enumerate()
	for i := range specs {
		specs[i].Engine = w.engine
		specs[i].Sampled = w.sampling
	}
	return specs
}

// simWorkers is the sweep pool size. One simulation at a time leaves the
// second vCPU to the collector, so a spec's host time does not depend
// on which spec happened to run beside it.
const simWorkers = 1

func runSim(o *options, w simWorkload, chk *checker, tr *tracer) (*runOut, error) {
	out := &runOut{}
	var specs []dramlat.RunSpec
	var cache *sweep.Cache
	for i := 0; i < o.setups; i++ {
		t0, c0 := time.Now(), processCPU()
		specs = w.grid(o.seed)
		// An exact run of the first spec at scale 0.1 (50-150 ms)
		// warms the code paths and the allocator before timing starts.
		warm := specs[0]
		warm.Engine, warm.Sampled, warm.Scale = "", dramlat.SampledOptions{}, min(warm.Scale, 0.1)
		res, err := dramlat.Run(warm)
		if err != nil {
			return nil, fmt.Errorf("warm-up spec: %w", err)
		}
		chk.result("warm-up", warm.Hash(), warm, res)
		dir, err := os.MkdirTemp(o.tmp, "cache-*")
		if err != nil {
			return nil, err
		}
		if cache, err = sweep.OpenCache(dir); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
		out.setupCPU = append(out.setupCPU, processCPU()-c0)
	}

	run := o.runner
	if run == nil {
		run = dramlat.Run
	}
	var seen []sighting
	out.untraced, out.grid, seen = simPhase(o, specs, run, chk)
	chk.results(seen)
	if tr != nil {
		prof, err := profiled(tr, func() { out.traced, _, seen = simPhase(o, specs, tr.run, chk) })
		if err != nil {
			return nil, err
		}
		out.prof = prof
		chk.results(seen)
	}

	// Every result must also survive a round trip through the result
	// cache unchanged.
	for _, oc := range out.grid {
		if oc.Err != nil {
			continue
		}
		h := tr.hash(oc.Spec)
		if h != oc.Hash {
			chk.failf("hash of %s/%s changed between calls", oc.Spec.Benchmark, oc.Spec.Scheduler)
		}
		id := tr.begin("sweep.cache_put", 0, oc.Spec.Benchmark+"/"+oc.Spec.Scheduler)
		err := cache.Put(oc.Spec, oc.Results)
		tr.end(id)
		if err != nil {
			chk.failf("cache put: %v", err)
			continue
		}
		id = tr.begin("sweep.cache_get", 0, oc.Spec.Benchmark+"/"+oc.Spec.Scheduler)
		spec, res, ok := cache.Entry(h)
		tr.end(id)
		if !ok {
			chk.failf("cache entry for %s/%s missing", oc.Spec.Benchmark, oc.Spec.Scheduler)
			continue
		}
		chk.result("cache entry", h, spec, res)
	}
	return out, nil
}

// simPhase runs whole passes over the grid until the run's time is
// used (at least two passes, so every spec is seen twice). It returns
// the measurements, the first pass and every outcome's results, which
// the caller checks after the phase.
func simPhase(o *options, specs []dramlat.RunSpec, run runner, chk *checker) (phase, []sweep.Outcome, []sighting) {
	ph := phase{workers: simWorkers}
	var seen []sighting
	var meter cpuMeter
	eng := &sweep.Engine{Workers: simWorkers, Runner: meter.wrap(run)}
	var first []sweep.Outcome
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for pass := 1; ; pass++ {
		c0 := processCPU()
		rep := eng.Run(specs)
		ph.jobCPU = append(ph.jobCPU, processCPU()-c0)
		ph.jobs = append(ph.jobs, rep.Elapsed)
		if first == nil {
			first = rep.Outcomes
		}
		for _, oc := range rep.Outcomes {
			ph.attempted++
			if oc.Err != nil {
				ph.failed++
				chk.failf("pass %d %s/%s: %v", pass, oc.Spec.Benchmark, oc.Spec.Scheduler, oc.Err)
				continue
			}
			ph.specs++
			ph.ran(oc)
			seen = append(seen, sighting{fmt.Sprintf("pass %d", pass), oc.Hash, oc.Spec, oc.Results})
		}
		// Stop before a pass of average length would overrun the time
		// budget.
		el := time.Since(start)
		if pass >= 2 && el+el/time.Duration(pass) > o.seconds {
			break
		}
	}
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.mallocs, ph.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	ph.specCPU = meter.take()
	return ph, first, seen
}
