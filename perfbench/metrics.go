package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported figure. The end-to-end and per-layer
// lists below are the ones BENCHMARK.json declares; main_test.go keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the figures every workload prints on its untraced run.
// Each applies to all three workloads (see README.md for what each one
// measures per workload), so none is ever absent or zero. The simulator
// timings are process CPU time: on a shared virtual machine it moves
// less with the neighbours' load than wall time does.
var endToEnd = []metricDef{
	{"sim_ticks_per_cpu_s", "1/s", "higher"},
	{"spec_cpu_geomean_ms", "ms", "lower"},
	{"job_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_ipc_geomean", "instr/cycle", "higher"},
	{"wg_ipc_gain", "ratio", "higher"},
}

// tableOnly are end-to-end figures printed in the untraced table but
// kept out of the JSON line. The wall-time figures follow the host's
// speed, which on a shared virtual machine moves by a third between
// runs (see README.md); the JSON carries their process-CPU counterparts.
// failed_frac is normally zero, and the JSON carries attempted and
// failed. Peak RSS depends on when the collector sets its heap goal.
var tableOnly = []metricDef{
	{"sim_ticks_per_s", "1/s", "higher"},
	{"specs_per_s", "1/s", "higher"},
	{"spec_wall_p50_ms", "ms", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"setup_wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"failed_frac", "frac", "lower"},
}

// serviceOnly are the end-to-end figures that exist only on the service
// workload; its table prints them after tableOnly.
var serviceOnly = []metricDef{
	{"cached_job_p50_ms", "ms", "lower"},
	{"cached_job_p99_ms", "ms", "lower"},
	{"fresh_job_p50_ms", "ms", "lower"},
	{"result_p50_us", "us", "lower"},
	{"result_p99_us", "us", "lower"},
}

// layers are the profile buckets, in the order the traced table prints
// them. Every CPU sample lands in exactly one (see classify).
var layers = []string{
	"sm", "coalesce", "xbar", "cache", "memctrl", "core", "coordnet", "dram",
	"addrmap", "gpu", "sampled", "stats", "workload", "gomap", "gc",
	"json", "net", "sweepd", "sweep", "other",
}

// perLayer are the figures the traced run prints in its JSON line.
// Span latencies that only the service makes (client.*, fleet.*) are in
// the traced table and the span file, not here, because they would read
// zero on the simulator workloads.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_frac", "frac", "lower"})
	}
	return append(out, []metricDef{
		{"sm.ns_per_sm_tick", "ns", "lower"},
		{"partition.ns_per_part_tick", "ns", "lower"},
		{"gpu.ns_per_visited_tick", "ns", "lower"},
		{"engine.visited_ticks", "count", "lower"},
		{"engine.sm_ticks", "count", "lower"},
		{"engine.part_ticks", "count", "lower"},
		{"sm.instr", "count", "higher"},
		{"sm.idle_frac", "frac", "lower"},
		{"cache.l1_hit_rate", "frac", "higher"},
		{"cache.l2_hit_rate", "frac", "higher"},
		{"dram.row_hit_rate", "frac", "higher"},
		{"dram.bus_util", "frac", "higher"},
		{"dram.acts", "count", "lower"},
		{"core.groups_selected", "count", "higher"},
		{"core.merb_fillers", "count", "higher"},
		{"coordnet.messages", "count", "lower"},
		{"memctrl.drains_started", "count", "lower"},
		{"sim.gap_p90_ticks", "cycles", "lower"},
		{"sampled.detailed_frac", "frac", "lower"},
		{"sampled.windows", "count", "higher"},
		{"alloc.mallocs_per_spec", "count", "lower"},
		{"alloc.bytes_per_spec", "bytes", "lower"},
		{"workload.build_ms", "ms", "lower"},
		{"gpu.new_system_ms", "ms", "lower"},
		{"sweep.pool_busy_frac", "frac", "higher"},
		{"sweep.cache_get_us", "us", "lower"},
		{"sweep.cache_put_us", "us", "lower"},
		{"dramlat.hash_us", "us", "lower"},
		{"wire.bytes_per_spec", "bytes", "lower"},
		{"sweepd.cache_hits", "count", "higher"},
		{"sweepd.executed", "count", "higher"},
		{"trace.ticks_ratio", "ratio", "higher"},
		{"trace.job_ratio", "ratio", "lower"},
		{"host.steal_frac", "frac", "lower"},
	}...)
}()

// value is one measured figure with the number of samples behind it.
type value struct {
	V float64
	N int
}

// quantile returns the q-quantile (0..1) of ds by linear interpolation
// between order statistics, or 0 for an empty slice.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// geomean of positive values; 0 when any is non-positive or xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
