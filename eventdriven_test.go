package dramlat

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dramlat/internal/gpu"
	"dramlat/internal/telemetry"
	"dramlat/internal/workload"
)

// runBoth executes the same spec under both engines and returns the two
// result digests plus telemetry bundles.
func runBoth(t *testing.T, spec RunSpec) (dense, event Results, dtel, etel *Telemetry) {
	t.Helper()
	ds := spec
	ds.Engine = "dense"
	var err error
	dense, dtel, err = RunTelemetry(ds)
	if err != nil {
		t.Fatalf("dense run: %v", err)
	}
	es := spec
	es.Engine = ""
	event, etel, err = RunTelemetry(es)
	if err != nil {
		t.Fatalf("event run: %v", err)
	}
	return dense, event, dtel, etel
}

// TestEventDrivenMatchesDense is the differential proof behind the
// event-driven engine: for every scheduler, with telemetry off and on,
// the next-wakeup loop must produce Results byte-identical to the dense
// reference loop. Any mismatch means a component reported a wakeup tick
// later than its first real state change.
func TestEventDrivenMatchesDense(t *testing.T) {
	workloads := []string{"bfs", "streamcluster"}
	for _, sched := range Schedulers() {
		for _, wl := range workloads {
			spec := RunSpec{
				Benchmark: wl, Scheduler: sched,
				Scale: 0.05, SMs: 6, WarpsPerSM: 8,
			}
			t.Run(sched+"/"+wl, func(t *testing.T) {
				dense, event, _, _ := runBoth(t, spec)
				if !reflect.DeepEqual(dense, event) {
					t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense, event)
				}
			})
			t.Run(sched+"/"+wl+"/telemetry", func(t *testing.T) {
				sp := spec
				sp.Telemetry = telemetry.Options{
					Events: true, EventCap: 1 << 14, SampleEvery: 500,
				}
				dense, event, dtel, etel := runBoth(t, sp)
				if !reflect.DeepEqual(dense, event) {
					t.Fatalf("results diverge\ndense: %+v\nevent: %+v", dense, event)
				}
				if !reflect.DeepEqual(dtel.Sampler.SMs, etel.Sampler.SMs) {
					t.Fatalf("SM samples diverge\ndense: %+v\nevent: %+v",
						dtel.Sampler.SMs, etel.Sampler.SMs)
				}
				if !reflect.DeepEqual(dtel.Sampler.Channels, etel.Sampler.Channels) {
					t.Fatalf("channel samples diverge\ndense: %+v\nevent: %+v",
						dtel.Sampler.Channels, etel.Sampler.Channels)
				}
				if !reflect.DeepEqual(dtel.Sampler.Globals, etel.Sampler.Globals) {
					t.Fatalf("global samples diverge\ndense: %+v\nevent: %+v",
						dtel.Sampler.Globals, etel.Sampler.Globals)
				}
			})
		}
	}
}

// TestEventDrivenMatchesDenseRefresh exercises the refresh path, which the
// public RunSpec does not expose: the channel's wakeup must account for the
// tREFI arming tick even while otherwise idle.
func TestEventDrivenMatchesDenseRefresh(t *testing.T) {
	for _, sched := range []string{"gmc", "frfcfs", "wg-w"} {
		t.Run(sched, func(t *testing.T) {
			build := func(engine string) Results {
				cfg := gpu.DefaultConfig()
				cfg.NumSMs = 6
				cfg.WarpsPerSM = 8
				cfg.Scheduler = sched
				cfg.EnableRefresh = true
				cfg.Engine = engine
				p := workload.DefaultParams()
				p.NumSMs = cfg.NumSMs
				p.WarpsPerSM = cfg.WarpsPerSM
				p.Scale = 0.05
				b, err := workload.ByName("bfs")
				if err != nil {
					t.Fatal(err)
				}
				sys, err := gpu.NewSystem(cfg, b.Build(p))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			dense, event := build(gpu.EngineDense), build(gpu.EngineEvent)
			if !reflect.DeepEqual(dense, event) {
				t.Fatalf("results diverge with refresh\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
}

// TestEngineValidation: the engine knob validates without running, and
// only the event, dense and sampled engines exist.
func TestEngineValidation(t *testing.T) {
	spec := RunSpec{Benchmark: "bfs", Scheduler: "wg-w", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	for _, engine := range []string{"", "event", "dense", "sampled"} {
		good := spec
		good.Engine = engine
		if err := good.Validate(); err != nil {
			t.Fatalf("engine %q rejected: %v", engine, err)
		}
	}
	var ve *ValidationError
	for _, engine := range []string{"quantum", "parallel"} {
		bad := spec
		bad.Engine = engine
		if err := bad.Validate(); !errors.As(err, &ve) {
			t.Fatalf("unknown engine %q accepted: %v", engine, err)
		}
	}

	// CmdLog is a Config-level knob: fast-forward regions issue no
	// commands, so the sampled engine refuses to log a holey stream.
	cfg := gpu.DefaultConfig()
	cfg.Engine = gpu.EngineSampled
	cfg.CmdLog = &strings.Builder{}
	if err := cfg.Validate(); !errors.As(err, &ve) {
		t.Fatalf("sampled+CmdLog accepted: %v", err)
	}
	cfg.Engine = gpu.EngineDense
	if err := cfg.Validate(); err != nil {
		t.Fatalf("dense+CmdLog rejected: %v", err)
	}
}
