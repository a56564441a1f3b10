package gpu_test

// The dense-vs-event differential matrix lives in an external test
// package: internal/workload, which builds the benchmarks, imports
// internal/gpu.

import (
	"errors"
	"reflect"
	"testing"

	"dramlat/internal/gpu"
	"dramlat/internal/guard"
	"dramlat/internal/telemetry"
	"dramlat/internal/workload"
)

// diffConfig is the small machine the differential runs use.
func diffConfig(sched string, sms int) gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = sms
	cfg.WarpsPerSM = 8
	cfg.Scheduler = sched
	return cfg
}

// outcome is one engine's run: its results, telemetry and error.
type outcome struct {
	res gpu.Results
	tel *telemetry.Telemetry
	err error
}

// runBoth builds bench at scale 0.05 for cfg twice and runs one copy on
// the dense reference loop and the other on the event engine.
func runBoth(t *testing.T, cfg gpu.Config, bench string) (dense, event outcome) {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultParams()
	p.NumSMs, p.WarpsPerSM, p.Scale = cfg.NumSMs, cfg.WarpsPerSM, 0.05
	run := func(runner func(*gpu.System) (gpu.Results, error)) outcome {
		sys, err := gpu.NewSystem(cfg, b.Build(p))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner(sys)
		return outcome{res, sys.Tel, err}
	}
	return run((*gpu.System).RunDense), run((*gpu.System).Run)
}

// runBothDrained is runBoth for runs that must complete.
func runBothDrained(t *testing.T, cfg gpu.Config, bench string) (dense, event outcome) {
	t.Helper()
	dense, event = runBoth(t, cfg, bench)
	if dense.err != nil {
		t.Fatalf("dense run: %v", dense.err)
	}
	if event.err != nil {
		t.Fatalf("event run: %v", event.err)
	}
	return dense, event
}

// TestEventDrivenMatchesDense is the differential proof behind the
// event-driven engine: for every scheduler, with telemetry off and on,
// the next-wakeup loop must produce Results byte-identical to the dense
// reference loop. Any mismatch means a component reported a wakeup tick
// later than its first real state change.
func TestEventDrivenMatchesDense(t *testing.T) {
	for _, sched := range gpu.Schedulers() {
		for _, wl := range []string{"bfs", "streamcluster"} {
			cfg := diffConfig(sched, 6)
			t.Run(sched+"/"+wl, func(t *testing.T) {
				dense, event := runBothDrained(t, cfg, wl)
				if !reflect.DeepEqual(dense.res, event.res) {
					t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense.res, event.res)
				}
			})
			t.Run(sched+"/"+wl+"/telemetry", func(t *testing.T) {
				cfg := cfg
				cfg.Telemetry = telemetry.Options{
					Events: true, EventCap: 1 << 14, SampleEvery: 500,
				}
				dense, event := runBothDrained(t, cfg, wl)
				if !reflect.DeepEqual(dense.res, event.res) {
					t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense.res, event.res)
				}
				ds, es := dense.tel.Sampler, event.tel.Sampler
				if !reflect.DeepEqual(ds.SMs, es.SMs) {
					t.Fatalf("SM samples diverge\ndense: %+v\nevent: %+v", ds.SMs, es.SMs)
				}
				if !reflect.DeepEqual(ds.Channels, es.Channels) {
					t.Fatalf("channel samples diverge\ndense: %+v\nevent: %+v", ds.Channels, es.Channels)
				}
				if !reflect.DeepEqual(ds.Globals, es.Globals) {
					t.Fatalf("global samples diverge\ndense: %+v\nevent: %+v", ds.Globals, es.Globals)
				}
			})
		}
	}
	// A run cut off by the cycle budget must stop both loops with the
	// same kind of error and byte-identical partial Results.
	t.Run("truncated", func(t *testing.T) {
		cfg := diffConfig("wg-w", 4)
		cfg.MaxTicks = 500
		dense, event := runBoth(t, cfg, "bfs")
		for _, o := range []outcome{dense, event} {
			var stall *guard.StallError
			if !errors.As(o.err, &stall) || stall.Kind != guard.StallCycleBudget {
				t.Fatalf("want a %s stall, got %v", guard.StallCycleBudget, o.err)
			}
		}
		if !reflect.DeepEqual(dense.res, event.res) {
			t.Fatalf("truncated results diverge\ndense: %+v\nevent: %+v", dense.res, event.res)
		}
	})
}

// TestEventDrivenMatchesDenseRefresh exercises the refresh path, which the
// public RunSpec does not expose: the channel's wakeup must account for the
// tREFI arming tick even while otherwise idle.
func TestEventDrivenMatchesDenseRefresh(t *testing.T) {
	for _, sched := range []string{"gmc", "frfcfs", "wg-w"} {
		t.Run(sched, func(t *testing.T) {
			cfg := diffConfig(sched, 6)
			cfg.EnableRefresh = true
			dense, event := runBothDrained(t, cfg, "bfs")
			if !reflect.DeepEqual(dense.res, event.res) {
				t.Fatalf("results diverge with refresh\ndense: %+v\nevent: %+v", dense.res, event.res)
			}
		})
	}
}
