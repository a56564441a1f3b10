package dramlat

import (
	"errors"
	"testing"

	"dramlat/internal/gpu"
)

// TestEngineValidation: the engine knob validates without running, and
// only the event and sampled engines exist. The dense reference loop is
// a test-only oracle (gpu.System.RunDense), not an engine.
func TestEngineValidation(t *testing.T) {
	spec := RunSpec{Benchmark: "bfs", Scheduler: "wg-w", Scale: 0.05, SMs: 2, WarpsPerSM: 4}
	for _, engine := range []string{"", "event", "sampled"} {
		good := spec
		good.Engine = engine
		if err := good.Validate(); err != nil {
			t.Fatalf("engine %q rejected: %v", engine, err)
		}
	}
	var ve *ValidationError
	for _, engine := range []string{"quantum", "parallel", "dense"} {
		bad := spec
		bad.Engine = engine
		if err := bad.Validate(); !errors.As(err, &ve) {
			t.Fatalf("unknown engine %q accepted: %v", engine, err)
		}
	}

	cfg := gpu.DefaultConfig()
	cfg.Engine = "dense"
	if err := cfg.Validate(); !errors.As(err, &ve) {
		t.Fatalf("gpu.Config accepted engine \"dense\": %v", err)
	}
}
