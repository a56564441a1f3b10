// Command perfbench is the repository's benchmark. It runs one workload
// of the simulator or the sweep service for a fixed time, checks every
// output, and prints the end-to-end metrics; with -trace 1 it runs the
// workload twice, the second time under a CPU profile, and prints the
// per-layer metrics instead. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root with perfbench/run.sh, which builds
// it first; README.md in this directory explains the workloads, the
// metrics and how to read the per-layer table.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"dramlat"
	"dramlat/internal/sweep"
	"dramlat/internal/sweepd"
)

// setups is how many times a run sets its workload up; setup_s is the
// median of their wall times.
const setups = 15

// workloads in the order -workload all runs them.
var workloads = []string{"irregular", "sampled", "service"}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool   // tests shrink every workload to a 2-SM machine
	setups   int    // set-ups per run; setup_s is their median
	workdir  string // the run's temp files and trace files go here
	tmp      string // per-run temp dir inside workdir
	// runner replaces dramlat.Run in the simulator workloads' untraced
	// sweep engine; tests use it to feed the checks bad results.
	runner runner
}

// phase is what one timed phase measured. The JSON timings come from
// process CPU time (see README.md, "Host context and noise"); the wall
// times are printed in the table.
type phase struct {
	wall              time.Duration
	workers           int           // simulations the phase could run at once
	specs             int           // spec outcomes delivered without error
	attempted, failed int           // operations: specs, or jobs and result fetches
	exec              time.Duration // host wall time of the simulations the phase ran
	ranTicks          int64         // their simulated cycles
	specWalls         []time.Duration
	ticks             map[string]int64           // simulated cycles per spec hash run
	specCPU           map[string][]time.Duration // process CPU time of each run, per spec hash
	jobs              []time.Duration            // grid passes, or cache-served service jobs
	jobCPU            []time.Duration            // process CPU time of each grid pass
	freshJobs         []time.Duration            // service jobs carrying a never-seen spec
	results           []time.Duration            // service result fetches
	mallocs, bytes    uint64
	wireBytes         int64
}

// ran accounts one simulated (not cache-served) outcome.
func (ph *phase) ran(oc sweep.Outcome) {
	ph.exec += oc.Elapsed
	ph.ranTicks += oc.Results.Ticks
	ph.specWalls = append(ph.specWalls, oc.Elapsed)
	if ph.ticks == nil {
		ph.ticks = map[string]int64{}
	}
	ph.ticks[oc.Hash] = oc.Results.Ticks
}

// cheapestRuns returns, for each distinct spec the phase ran, the
// lowest process CPU time of its runs, and the specs' simulated cycles.
// The lowest of several runs leaves out a run that a busy host slowed.
func (ph *phase) cheapestRuns() (cpu []time.Duration, ticks int64) {
	for h, t := range ph.ticks {
		if c := ph.specCPU[h]; len(c) > 0 {
			cpu = append(cpu, slices.Min(c))
			ticks += t
		}
	}
	return cpu, ticks
}

// ticksPerCPUSec is the simulated cycles of every distinct spec over
// the process CPU time of its cheapest run.
// ticksPerSec is the phase's simulated cycles over the host wall time
// of its simulations.
func (ph *phase) ticksPerSec() float64 {
	if ph.exec <= 0 {
		return 0
	}
	return float64(ph.ranTicks) / ph.exec.Seconds()
}

func (ph *phase) ticksPerCPUSec() float64 {
	cpu, ticks := ph.cheapestRuns()
	var sum time.Duration
	for _, c := range cpu {
		sum += c
	}
	if sum <= 0 {
		return 0
	}
	return float64(ticks) / sum.Seconds()
}

// cpuMeter wraps a runner and records the process CPU time of each
// call by spec hash. Process time, not thread time, so that collector
// work running beside a simulation counts toward it.
type cpuMeter struct {
	mu sync.Mutex
	by map[string][]time.Duration
}

func (m *cpuMeter) wrap(run runner) runner {
	return func(spec dramlat.RunSpec) (dramlat.Results, error) {
		h := spec.Hash()
		c0 := processCPU()
		res, err := run(spec)
		d := processCPU() - c0
		m.mu.Lock()
		if m.by == nil {
			m.by = map[string][]time.Duration{}
		}
		m.by[h] = append(m.by[h], d)
		m.mu.Unlock()
		return res, err
	}
}

// take returns what the meter recorded and empties it.
func (m *cpuMeter) take() map[string][]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	by := m.by
	m.by = nil
	return by
}

// runOut is everything one workload run produced.
type runOut struct {
	setups   []time.Duration // wall time of each set-up
	setupCPU []time.Duration // process CPU time of each set-up
	untraced phase
	traced   phase
	grid     []sweep.Outcome // one outcome per grid spec
	prof     *cpuProfile     // traced runs only
	health   sweepd.Stats    // service only
}

// profiled runs fn under the CPU profiler and decodes the profile.
func profiled(tr *tracer, fn func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tr.setProfiling(true)
	fn()
	tr.setProfiling(false)
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

func main() {
	o := &options{setups: setups}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed, passed to the simulator as RunSpec.Seed")
	secs := fs.Float64("seconds", 20, "time each timed phase measures")
	traceFlag := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temp files and trace output")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *traceFlag == 1
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout))
}

func (o *options) validate() error {
	switch {
	case o.workload != "all" && !slices.Contains(workloads, o.workload):
		return fmt.Errorf("unknown workload %q", o.workload)
	case o.seed == 0:
		return errors.New("seed must be non-zero (0 selects the simulator's default)")
	case o.seconds <= 0:
		return errors.New("seconds must be positive")
	}
	return nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the selected workload(s), prints the tables and the
// JSON line, and returns the exit code: 0, 1 when an output check
// failed, 2 when the benchmark could not run.
func run(o *options, stdout io.Writer) int {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	if o.trace {
		// The traced run times two phases, untraced then profiled.
		o.seconds /= 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	total := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		r, err := runWorkload(o, name, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and prints its table.
func runWorkload(o *options, name string, stdout io.Writer) (result, error) {
	if name == "service" {
		// The service runs on one P. Its single client hands every
		// request off between client, server and worker goroutines; with
		// two Ps each handoff wakes the other vCPU, and on a busy
		// virtualised host that wake-up, not the service, set the
		// figures (jobs took up to twice as long, with 30% steal). On
		// one P the handoffs stay on one thread.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	chk := newChecker()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	steal := newStealMeter()
	var out *runOut
	var err error
	body := func() {
		if name == "service" {
			out, err = runService(o, chk, tr)
		} else {
			out, err = runSim(o, simWorkloads(o.tiny)[name], chk, tr)
		}
	}
	if o.trace {
		// Goroutines started inside inherit the label, so every sample
		// of the run is attributed to its workload.
		pprof.Do(context.Background(), pprof.Labels("workload", name), func(ctx context.Context) {
			tr.ctx = ctx
			body()
		})
	} else {
		body()
	}
	if err != nil {
		return result{}, err
	}
	host := hostContext()
	host.StealFrac = steal.done()

	ph := &out.untraced
	r := result{Correct: chk.ok(), Attempted: ph.attempted + out.traced.attempted,
		Failed: ph.failed + out.traced.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d phase_seconds=%g trace=%v\n",
		name, o.seed, o.seconds.Seconds(), o.trace)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight|tabwriter.Debug)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tbetter\t")
	var defs []metricDef
	var vals map[string]value
	if o.trace {
		defs, vals = perLayer, perLayerValues(out, tr, host)
		for _, d := range traceOnlyDefs {
			printRow(tw, d, vals[d.Name], "")
		}
	} else {
		defs, vals = endToEnd, endToEndValues(name, out)
		vals["failed_frac"] = value{float64(r.Failed) / float64(max(r.Attempted, 1)), r.Attempted}
		extra := tableOnly
		if name == "service" {
			extra = append(append([]metricDef(nil), tableOnly...), serviceOnly...)
		}
		for _, d := range extra {
			printRow(tw, d, vals[d.Name], "")
		}
	}
	for _, d := range defs {
		v := vals[d.Name]
		r.Metrics[d.Name] = jsonMetric{Value: v.V, Unit: d.Unit}
		printRow(tw, d, v, noteFor(name, d.Name))
	}
	tw.Flush()
	if o.trace {
		printProfileByBenchmark(stdout, out.prof)
		path := filepath.Join(o.workdir, fmt.Sprintf("perfbench-spans-%s-seed%d.json", name, o.seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	if r.Correct {
		fmt.Fprintf(stdout, "checks: ok (%d operations)\n", r.Attempted)
	} else {
		fmt.Fprintf(stdout, "checks: FAILED\n")
		for _, p := range chk.problems {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
	}
	return r, nil
}

func printRow(w io.Writer, d metricDef, v value, note string) {
	fmt.Fprintf(w, "%s\t%.6g\t%s\t%d\t%s\t%s\n", d.Name, v.V, d.Unit, v.N, d.Better, note)
}

// paperGain holds, per workload, the paper's Fig 8 / Section VI-A
// geomean speed-up of WG-W over GMC (GPGPU-Sim, not hardware) and this
// repository's full-size value from EXPERIMENTS.md.
var paperGain = map[string][2]float64{
	"irregular": {1.101, 1.068},
	"sampled":   {1.101, 1.068},
	"service":   {1.101, 1.068},
}

func noteFor(workload, metric string) string {
	if metric != "wg_ipc_gain" {
		return ""
	}
	g := paperGain[workload]
	return fmt.Sprintf("paper %.3f, EXPERIMENTS.md %.3f (full-size runs)", g[0], g[1])
}

// endToEndValues derives the untraced run's user-visible figures.
func endToEndValues(name string, out *runOut) map[string]value {
	ph := &out.untraced
	cpu, _ := ph.cheapestRuns()
	cpuMS := make([]float64, len(cpu))
	for i, c := range cpu {
		cpuMS[i] = ms(c)
	}
	v := map[string]value{
		"sim_ticks_per_cpu_s": {ph.ticksPerCPUSec(), len(ph.specWalls)},
		"spec_cpu_geomean_ms": {geomean(cpuMS), len(ph.specWalls)},
		"setup_s":             {quantile(out.setupCPU, 0.5).Seconds(), len(out.setupCPU)},
		"setup_wall_s":        {quantile(out.setups, 0.5).Seconds(), len(out.setups)},
		"sim_ticks_per_s":     {ph.ticksPerSec(), len(ph.specWalls)},
		"specs_per_s":         {float64(ph.specs) / ph.wall.Seconds(), ph.specs},
		"spec_wall_p50_ms":    {ms(quantile(ph.specWalls, 0.5)), len(ph.specWalls)},
		"job_p50_ms":          {ms(quantile(ph.jobs, 0.5)), len(ph.jobs)},
		"peak_rss_mb":         {peakRSSMB(), 1},
	}
	if name == "service" {
		// Wall time: the service's CPU time includes the loopback
		// network stack, which the kernel charges unevenly, and its
		// median job latency spread less between runs.
		v["job_ms"] = value{ms(quantile(ph.jobs, 0.5)), len(ph.jobs)}
	} else {
		// A grid pass is a job.
		v["job_ms"] = value{ms(slices.Min(ph.jobCPU)), len(ph.jobCPU)}
	}
	ipcs, gains := ipcFigures(out.grid)
	v["sim_ipc_geomean"] = value{geomean(ipcs), len(ipcs)}
	v["wg_ipc_gain"] = value{geomean(gains), len(gains)}
	if name == "service" {
		v["cached_job_p50_ms"] = value{ms(quantile(ph.jobs, 0.5)), len(ph.jobs)}
		v["cached_job_p99_ms"] = value{ms(quantile(ph.jobs, 0.99)), len(ph.jobs)}
		v["fresh_job_p50_ms"] = value{ms(quantile(ph.freshJobs, 0.5)), len(ph.freshJobs)}
		v["result_p50_us"] = value{us(quantile(ph.results, 0.5)), len(ph.results)}
		v["result_p99_us"] = value{us(quantile(ph.results, 0.99)), len(ph.results)}
	}
	return v
}

// ipcFigures returns every grid spec's IPC and, per benchmark, the
// ratio IPC(wg-w)/IPC(gmc).
func ipcFigures(grid []sweep.Outcome) (ipcs, gains []float64) {
	byBench := map[string]map[string]float64{}
	var benches []string
	for _, oc := range grid {
		if oc.Err != nil {
			continue
		}
		ipcs = append(ipcs, oc.Results.IPC)
		b := oc.Spec.Benchmark
		if byBench[b] == nil {
			byBench[b] = map[string]float64{}
			benches = append(benches, b)
		}
		byBench[b][oc.Spec.Scheduler] = oc.Results.IPC
	}
	for _, b := range benches {
		if g, w := byBench[b]["gmc"], byBench[b]["wg-w"]; g > 0 && w > 0 {
			gains = append(gains, w/g)
		}
	}
	return ipcs, gains
}

// traceOnlyDefs are per-layer figures printed in the traced table but
// not in its JSON line (see perLayer).
var traceOnlyDefs = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_s", "s", "lower"})
	}
	return append(out, []metricDef{
		{"client.submit_ms", "ms", "lower"},
		{"client.stream_ms", "ms", "lower"},
		{"client.report_ms", "ms", "lower"},
		{"client.result_us", "us", "lower"},
		{"fleet.claim_to_complete_ms", "ms", "lower"},
		{"profile.samples", "count", "higher"},
	}...)
}()

// perLayerValues derives the traced run's per-layer figures: self time
// from the profile of the traced phase, work counts from the grid's
// Results and engine counters, spans, and allocation and pool figures
// from the untraced phase.
func perLayerValues(out *runOut, tr *tracer, host hostInfo) map[string]value {
	v := map[string]value{}
	byLayer, total := out.prof.layerTimes()
	n := len(out.prof.samples)
	v["profile.samples"] = value{float64(n), n}
	for _, l := range layers {
		v[l+".self_s"] = value{float64(byLayer[l]) / 1e9, n}
		frac := 0.0
		if total > 0 {
			frac = float64(byLayer[l]) / float64(total)
		}
		v[l+".self_frac"] = value{frac, n}
	}
	perTick := func(ns int64, ticks int64) value {
		if ticks <= 0 {
			return value{0, 0}
		}
		return value{float64(ns) / float64(ticks), n}
	}
	prof := tr.profiled
	v["sm.ns_per_sm_tick"] = perTick(byLayer["sm"], prof.SMTicks)
	v["partition.ns_per_part_tick"] = perTick(byLayer["cache"]+byLayer["memctrl"]+byLayer["core"]+
		byLayer["coordnet"]+byLayer["dram"], prof.PartTicks)
	v["gpu.ns_per_visited_tick"] = perTick(byLayer["gpu"], prof.VisitedTicks)

	// Work done over the grid: deterministic for a given seed.
	var w struct {
		visited, smTicks, partTicks, instr, acts, groups, fillers, coord, drains int64
		windows, detailed, modeled                                               int64
		idle, l1, l2, rowHit, util, gap90                                        float64
	}
	var specs int
	for _, oc := range out.grid {
		if oc.Err != nil {
			continue
		}
		specs++
		es := tr.engine[oc.Hash]
		w.visited += es.VisitedTicks
		w.smTicks += es.SMTicks
		w.partTicks += es.PartTicks
		r := oc.Results
		w.instr += r.Instr
		w.acts += r.DRAM.ACTs
		w.groups += r.GroupsSelected
		w.fillers += r.MERBFillers
		w.coord += r.CoordMessages
		w.drains += r.DrainsStarted
		w.idle += r.SMIdleFrac
		w.l1 += r.L1HitRate
		w.l2 += r.L2HitRate
		w.rowHit += r.RowHitRate
		w.util += r.Utilization
		w.gap90 += r.GapP90
		if s := r.Sampling; s != nil {
			w.windows += int64(s.Windows)
			w.detailed += s.DetailedTicks
			w.modeled += s.ModeledTicks
		}
	}
	count := func(x int64) value { return value{float64(x), specs} }
	mean := func(x float64) value {
		if specs == 0 {
			return value{0, 0}
		}
		return value{x / float64(specs), specs}
	}
	v["engine.visited_ticks"] = count(w.visited)
	v["engine.sm_ticks"] = count(w.smTicks)
	v["engine.part_ticks"] = count(w.partTicks)
	v["sm.instr"] = count(w.instr)
	v["sm.idle_frac"] = mean(w.idle)
	v["cache.l1_hit_rate"] = mean(w.l1)
	v["cache.l2_hit_rate"] = mean(w.l2)
	v["dram.row_hit_rate"] = mean(w.rowHit)
	v["dram.bus_util"] = mean(w.util)
	v["dram.acts"] = count(w.acts)
	v["core.groups_selected"] = count(w.groups)
	v["core.merb_fillers"] = count(w.fillers)
	v["coordnet.messages"] = count(w.coord)
	v["memctrl.drains_started"] = count(w.drains)
	v["sim.gap_p90_ticks"] = mean(w.gap90)
	v["sampled.windows"] = count(w.windows)
	v["sampled.detailed_frac"] = value{0, specs}
	if w.detailed+w.modeled > 0 {
		v["sampled.detailed_frac"] = value{float64(w.detailed) / float64(w.detailed+w.modeled), specs}
	}

	ph := &out.untraced
	perSpec := func(x float64) value {
		if ph.specs == 0 {
			return value{0, 0}
		}
		return value{x / float64(ph.specs), ph.specs}
	}
	v["alloc.mallocs_per_spec"] = perSpec(float64(ph.mallocs))
	v["alloc.bytes_per_spec"] = perSpec(float64(ph.bytes))
	v["wire.bytes_per_spec"] = perSpec(float64(ph.wireBytes))
	v["sweep.pool_busy_frac"] = value{ph.exec.Seconds() / (float64(ph.workers) * ph.wall.Seconds()), len(ph.specWalls)}

	median := func(name string, unit func(time.Duration) float64) value {
		ds := tr.durations(name)
		return value{unit(quantile(ds, 0.5)), len(ds)}
	}
	v["workload.build_ms"] = median("workload.build", ms)
	v["gpu.new_system_ms"] = median("gpu.new_system", ms)
	v["sweep.cache_get_us"] = median("sweep.cache_get", us)
	v["sweep.cache_put_us"] = median("sweep.cache_put", us)
	v["dramlat.hash_us"] = median("dramlat.hash", us)
	v["client.submit_ms"] = median("client.submit", ms)
	v["client.stream_ms"] = median("client.stream", ms)
	v["client.report_ms"] = median("client.report", ms)
	v["client.result_us"] = median("client.result", us)
	v["fleet.claim_to_complete_ms"] = median("fleet.claim_to_complete", ms)
	v["sweepd.cache_hits"] = value{float64(out.health.CacheHits), 1}
	v["sweepd.executed"] = value{float64(out.health.Executed), 1}

	// Tracing overhead: the traced phase against the untraced one.
	ratio := func(a, b float64, n int) value {
		if b == 0 || math.IsNaN(a/b) {
			return value{0, 0}
		}
		return value{a / b, n}
	}
	tp := &out.traced
	v["trace.ticks_ratio"] = ratio(tp.ticksPerCPUSec(), ph.ticksPerCPUSec(), len(tp.specWalls))
	v["trace.job_ratio"] = ratio(ms(quantile(tp.jobs, 0.5)), ms(quantile(ph.jobs, 0.5)), len(tp.jobs))
	v["host.steal_frac"] = value{host.StealFrac, 1}
	return v
}

// printProfileByBenchmark prints the share of profile time each
// benchmark's simulations took, from the samples' pprof labels.
func printProfileByBenchmark(w io.Writer, p *cpuProfile) {
	_, total := p.layerTimes()
	byBench := p.labelTimes("benchmark")
	if total == 0 || len(byBench) == 0 {
		return
	}
	names := make([]string, 0, len(byBench))
	for b := range byBench {
		names = append(names, b)
	}
	sort.Slice(names, func(i, j int) bool { return byBench[names[i]] > byBench[names[j]] })
	var parts []string
	for _, b := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", b, 100*float64(byBench[b])/float64(total)))
	}
	fmt.Fprintf(w, "profile time by benchmark label: %s\n", strings.Join(parts, ", "))
}
