package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"dramlat"
	"dramlat/internal/gpu"
	"dramlat/internal/guard"
	"dramlat/internal/workload"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req (a job id or a spec name); Parent is the enclosing
// span's ID, 0 at the top.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends, plus the engine
// counters of the simulations it ran itself. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	// ctx carries the run's workload profile label; spec labels are
	// added to it, so a sample keeps all three.
	ctx context.Context

	mu    sync.Mutex
	spans []span
	// engine holds each spec's EngineStats by hash; profiled sums the
	// counters of every simulation run while the profile was on.
	engine   map[string]gpu.EngineStats
	profiled gpu.EngineStats
	onProf   bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ctx: context.Background(), engine: map[string]gpu.EngineStats{}}
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span measured outside begin/end, such as one
// observed in an HTTP transport.
func (t *tracer) record(name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// hash is spec.Hash under a dramlat.hash span.
func (t *tracer) hash(spec dramlat.RunSpec) string {
	id := t.begin("dramlat.hash", 0, "")
	defer t.end(id)
	return spec.Hash()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// setProfiling marks whether simulations now run under the CPU profile.
func (t *tracer) setProfiling(on bool) {
	t.mu.Lock()
	t.onProf = on
	t.mu.Unlock()
}

// run executes one spec the way dramlat.Run does, but through
// workload.Build, gpu.NewSystem and System.Run directly, so each step
// gets a span and the engine counters become visible. The samples it
// causes carry the spec's benchmark and scheduler as profile labels.
// Its Results are checked against untraced dramlat.Run results of the
// same hash, so any drift from dramlat.Run fails the benchmark. Like
// dramlat.Run it never panics: a panic in the simulator comes back as a
// *dramlat.RunError, so the spec counts as failed.
func (t *tracer) run(spec dramlat.RunSpec) (res dramlat.Results, err error) {
	labels := pprof.Labels("benchmark", spec.Benchmark, "scheduler", spec.Scheduler)
	pprof.Do(t.ctx, labels, func(context.Context) {
		res, err = t.simulate(spec)
	})
	return res, err
}

func (t *tracer) simulate(spec dramlat.RunSpec) (res dramlat.Results, err error) {
	req := spec.Benchmark + "/" + spec.Scheduler
	top := t.begin("spec", 0, req)
	defer t.end(top)
	phase := guard.PhaseValidate
	var sys *gpu.System
	defer func() {
		if r := recover(); r != nil {
			cycle := int64(-1)
			if sys != nil {
				cycle = sys.Now()
			}
			res, err = dramlat.Results{}, guard.Recovered(r, spec.Hash(), phase, cycle)
		}
	}()
	if err := spec.Validate(); err != nil {
		return dramlat.Results{}, err
	}
	phase = guard.PhaseBuild
	b, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return dramlat.Results{}, err
	}
	cfg := dramlat.Config(spec)
	p := workload.DefaultParams()
	p.NumSMs, p.WarpsPerSM = cfg.NumSMs, cfg.WarpsPerSM
	if spec.Scale > 0 {
		p.Scale = spec.Scale
	}
	if spec.Seed != 0 {
		p.Seed = spec.Seed
	}
	hash := spec.Hash()
	if cfg.Engine == gpu.EngineSampled {
		cfg.Sampled.Key = hash
	}
	id := t.begin("workload.build", top, req)
	w := b.Build(p)
	t.end(id)
	id = t.begin("gpu.new_system", top, req)
	sys, err = gpu.NewSystem(cfg, w)
	t.end(id)
	if err != nil {
		return dramlat.Results{}, err
	}
	phase = guard.PhaseRun
	id = t.begin("gpu.run", top, req)
	res, err = sys.Run()
	t.end(id)
	t.mu.Lock()
	t.engine[hash] = sys.Engine
	if t.onProf {
		t.profiled.VisitedTicks += sys.Engine.VisitedTicks
		t.profiled.SMTicks += sys.Engine.SMTicks
		t.profiled.PartTicks += sys.Engine.PartTicks
	}
	t.mu.Unlock()
	if err != nil {
		return res, fmt.Errorf("perfbench: %s: %w", req, err)
	}
	return res, nil
}

// write stores the spans, sorted by start, as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
