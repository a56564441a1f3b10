package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramlat"
	"dramlat/internal/metrics"
	"dramlat/internal/sweep"
	"dramlat/internal/sweepd"
	"dramlat/internal/sweepd/client"
)

// serviceGrid is the small grid the service workload's cache holds:
// eight irregular benchmarks × {gmc, wg-w} on a 2-SM, 4-warp machine.
func serviceGrid(tiny bool, seed int64) []dramlat.RunSpec {
	benches := dramlat.IrregularNames()[:8]
	if tiny {
		benches = benches[:2]
	}
	return sweep.Grid{Benchmarks: benches, Schedulers: schedulers, Seeds: []int64{seed},
		Scales: []float64{0.05}, SMs: []int{2}, WarpsPerSM: []int{4}}.Enumerate()
}

// freshEvery is the job cadence of never-seen specs: every freshEvery-th
// job carries one, which the fleet worker must claim and simulate.
const freshEvery = 8

// freshBench is the benchmark of every never-seen spec. One benchmark
// keeps the fresh specs' host times comparable (graph benchmarks spend
// up to 100x longer generating inputs at this size), and nw spends
// most of its time simulating.
const freshBench = "nw"

// freshSpec is the k-th never-seen spec: nw on the grid's machine,
// alternating schedulers, under a seed derived from the workload seed
// and k, so it differs from every grid spec and every other fresh spec.
func freshSpec(grid []dramlat.RunSpec, seed int64, k int) dramlat.RunSpec {
	sp := grid[0]
	sp.Benchmark, sp.Scheduler = freshBench, schedulers[k%len(schedulers)]
	sp.Seed = seed<<20 + int64(k) + 1
	return sp
}

// serviceEnv is one running service: a fleet-only sweepd.Server on a
// loopback port with a pre-filled result cache, and one in-process
// fleet worker.
type serviceEnv struct {
	cache      *sweep.Cache
	srv        *sweepd.Server
	hs         *http.Server
	served     chan struct{}
	url        string
	stopWorker context.CancelFunc
	workerDone chan struct{}
	traced     *atomic.Bool // the worker simulates through the tracer
	meter      cpuMeter     // the worker's simulations
}

// startService sets up a service whose cache holds the grid, returning
// the grid's locally computed outcomes.
func startService(o *options, grid []dramlat.RunSpec, chk *checker, tr *tracer) (*serviceEnv, []sweep.Outcome, error) {
	dir, err := os.MkdirTemp(o.tmp, "service-*")
	if err != nil {
		return nil, nil, err
	}
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	fill := dramlat.Run
	if tr != nil {
		fill = tr.run
	}
	rep := (&sweep.Engine{Workers: simWorkers, Runner: fill}).Run(grid)
	if err := rep.Err(); err != nil {
		return nil, nil, fmt.Errorf("pre-fill: %w", err)
	}
	for _, oc := range rep.Outcomes {
		chk.result("local pre-fill", oc.Hash, oc.Spec, oc.Results)
		id := tr.begin("sweep.cache_put", 0, oc.Spec.Benchmark+"/"+oc.Spec.Scheduler)
		err := cache.Put(oc.Spec, oc.Results)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	e := &serviceEnv{cache: cache, served: make(chan struct{}), workerDone: make(chan struct{}),
		traced: new(atomic.Bool), url: "http://" + ln.Addr().String()}
	e.srv = sweepd.NewWithOptions(&sweep.Engine{Cache: cache}, nil, metrics.NewRegistry(),
		sweepd.Options{LocalWorkers: -1})
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it
	}()

	work := e.meter.wrap(func(spec dramlat.RunSpec) (dramlat.Results, error) {
		if e.traced.Load() {
			return tr.run(spec)
		}
		return dramlat.Run(spec)
	})
	w := &client.Worker{
		Remote: &client.Remote{BaseURL: e.url, HTTP: &http.Client{Transport: &fleetTransport{base: newTransport(), tr: tr, on: e.traced}}},
		Eng:    &sweep.Engine{Workers: 1, Runner: work},
		Name:   "perfbench-worker", Concurrency: 1, Poll: time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopWorker = cancel
	go func() {
		defer close(e.workerDone)
		w.Run(ctx) // returns nil once ctx is canceled
	}()
	return e, rep.Outcomes, nil
}

// close stops the worker, then the server, then the listener, and
// waits for each to end.
func (e *serviceEnv) close() {
	e.stopWorker()
	<-e.workerDone
	e.srv.Close()
	e.hs.Close()
	<-e.served
}

func runService(o *options, chk *checker, tr *tracer) (*runOut, error) {
	out := &runOut{}
	grid := serviceGrid(o.tiny, o.seed)
	var env *serviceEnv
	for i := 0; i < o.setups; i++ {
		if env != nil {
			env.close()
		}
		t0, c0 := time.Now(), processCPU()
		var err error
		env, out.grid, err = startService(o, grid, chk, tr)
		if err != nil {
			return nil, fmt.Errorf("service set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0))
		out.setupCPU = append(out.setupCPU, processCPU()-c0)
	}
	defer env.close()

	fresh := map[string]dramlat.RunSpec{}
	k := 0 // fresh specs submitted so far
	var seen []sighting
	out.untraced, seen = servicePhase(o, env, grid, &k, fresh, chk, nil)
	chk.results(seen)
	if tr != nil {
		env.traced.Store(true)
		prof, err := profiled(tr, func() { out.traced, seen = servicePhase(o, env, grid, &k, fresh, chk, tr) })
		if err != nil {
			return nil, err
		}
		out.prof = prof
		chk.results(seen)
	}

	// Untimed checks: each fresh spec matches a local run of the same
	// spec, and every spec's cache entry matches what was served.
	for h, sp := range fresh {
		res, err := dramlat.Run(sp)
		if err != nil {
			chk.failf("local re-run of fresh %s/%s: %v", sp.Benchmark, sp.Scheduler, err)
			continue
		}
		chk.result("local re-run", h, sp, res)
	}
	for _, sp := range append(append([]dramlat.RunSpec(nil), grid...), mapValues(fresh)...) {
		h := tr.hash(sp)
		id := tr.begin("sweep.cache_get", 0, sp.Benchmark+"/"+sp.Scheduler)
		spec, res, ok := env.cache.Entry(h)
		tr.end(id)
		if !ok {
			chk.failf("no cache entry for %s/%s seed %d", sp.Benchmark, sp.Scheduler, sp.Seed)
			continue
		}
		chk.result("cache entry", h, spec, res)
	}
	st, err := (&client.Remote{BaseURL: env.url}).Health(context.Background())
	if err != nil {
		chk.failf("health: %v", err)
	}
	out.health = st
	return out, nil
}

func mapValues(m map[string]dramlat.RunSpec) []dramlat.RunSpec {
	out := make([]dramlat.RunSpec, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// servicePhase is one closed loop of a single client: submit the grid
// as a job (with a fresh spec every freshEvery-th job), wait for its
// report, then fetch one result by hash; repeat until the time is up.
// k counts the never-seen specs made so far; fresh collects them by hash.
// It returns every served result for checking after the phase.
func servicePhase(o *options, env *serviceEnv, grid []dramlat.RunSpec, k *int, fresh map[string]dramlat.RunSpec, chk *checker, tr *tracer) (phase, []sighting) {
	ph := phase{workers: 1}
	var seen []sighting
	ct := &countingTransport{base: newTransport()}
	defer ct.base.CloseIdleConnections()
	remote := &client.Remote{BaseURL: env.url, HTTP: &http.Client{Transport: ct}}
	ctx := context.Background()
	hashes := make([]string, len(grid))
	for i, sp := range grid {
		hashes[i] = sp.Hash()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	env.meter.take()
	start := time.Now()
	// Job 0 carries a fresh spec and job 1 does not, so even a short
	// phase measures both kinds.
	for job := 0; job < 2 || time.Since(start) < o.seconds; job++ {
		specs := grid
		isFresh := job%freshEvery == 0
		if isFresh {
			specs = append(append([]dramlat.RunSpec(nil), grid...), freshSpec(grid, o.seed, *k))
			*k++
		}
		req := fmt.Sprintf("job-%d", len(ph.jobs)+len(ph.freshJobs))
		t0 := time.Now()
		top := tr.begin("client.job", 0, req)
		rep, err := submitJob(ctx, remote, specs, top, req, tr)
		tr.end(top)
		lat := time.Since(t0)
		ph.attempted++
		if err == nil && len(rep.Outcomes) != len(specs) {
			err = fmt.Errorf("report has %d outcomes for %d specs", len(rep.Outcomes), len(specs))
		}
		if err != nil {
			ph.failed++
			chk.failf("%s: %v", req, err)
			continue
		}
		failed := false
		for i, oc := range rep.Outcomes {
			if oc.Err != nil {
				failed = true
				chk.failf("%s %s/%s: %v", req, oc.Spec.Benchmark, oc.Spec.Scheduler, oc.Err)
				continue
			}
			ph.specs++
			if i < len(grid) {
				if !oc.Cached {
					chk.failf("%s %s/%s: grid spec not served from the cache", req, oc.Spec.Benchmark, oc.Spec.Scheduler)
				}
			} else {
				fresh[oc.Hash] = specs[i]
				ph.ran(oc)
			}
			seen = append(seen, sighting{"HTTP report", oc.Hash, oc.Spec, oc.Results})
		}
		switch {
		case failed:
			ph.failed++
		case isFresh:
			ph.freshJobs = append(ph.freshJobs, lat)
		default:
			ph.jobs = append(ph.jobs, lat)
		}

		h := hashes[job%len(hashes)]
		t0 = time.Now()
		id := tr.begin("client.result", 0, req)
		spec, res, err := remote.Result(ctx, h)
		tr.end(id)
		ph.results = append(ph.results, time.Since(t0))
		ph.attempted++
		if err != nil {
			ph.failed++
			chk.failf("GET result %.12s: %v", h, err)
			continue
		}
		seen = append(seen, sighting{"GET result", h, spec, res})
	}
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.mallocs, ph.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	ph.wireBytes = ct.n.Load()
	ph.specCPU = env.meter.take()
	return ph, seen
}

// submitJob is Remote.RunContext split into its three round trips, each
// under its own span.
func submitJob(ctx context.Context, r *client.Remote, specs []dramlat.RunSpec, parent int, req string, tr *tracer) (*sweep.Report, error) {
	id := tr.begin("client.submit", parent, req)
	st, err := r.Submit(ctx, sweepd.SubmitRequest{Specs: specs})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("client.stream", parent, req)
	state, err := r.Stream(ctx, st.ID, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if state != sweepd.JobDone {
		return nil, fmt.Errorf("job ended %s", state)
	}
	id = tr.begin("client.report", parent, req)
	rep, _, err := r.Report(ctx, st.ID)
	tr.end(id)
	return rep, err
}

func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		c.n.Add(req.ContentLength)
	}
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// fleetTransport watches the worker's lease calls and records a
// fleet.claim_to_complete span from each claim's reply to the next
// completion. The worker runs one slot, so a completion always belongs
// to the latest claim.
type fleetTransport struct {
	base *http.Transport
	tr   *tracer
	on   *atomic.Bool // record only while the traced phase runs

	mu      sync.Mutex
	claimed time.Time
}

func (f *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/workers/complete") {
		f.mu.Lock()
		t0 := f.claimed
		f.mu.Unlock()
		if !t0.IsZero() && f.on.Load() {
			f.tr.record("fleet.claim_to_complete", "", t0, time.Now())
		}
	}
	resp, err := f.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/workers/claim") {
		f.mu.Lock()
		f.claimed = time.Now()
		f.mu.Unlock()
	}
	return resp, err
}
