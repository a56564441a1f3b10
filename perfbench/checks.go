package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"dramlat"
)

// checker accumulates output-check failures. It remembers the encoded
// Results of the first sighting of every spec hash, so any later
// sighting (a repeat, the HTTP report, a fetched result, the cache
// entry, a local re-run) must match it byte for byte. Safe for
// concurrent use.
type checker struct {
	mu       sync.Mutex
	seen     map[string][]byte
	problems []string
}

func newChecker() *checker { return &checker{seen: map[string][]byte{}} }

// maxProblems caps the list printed at the end; a systematic fault
// would otherwise repeat for every spec.
const maxProblems = 20

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.problems) == 0
}

// result checks one spec's Results where they appear (where names the
// place for the failure message): the result must be valid for its
// engine and identical to every other sighting of the same hash.
func (c *checker) result(where, hash string, spec dramlat.RunSpec, res dramlat.Results) {
	if err := validate(spec, res); err != nil {
		c.failf("%s %s/%s: %v", where, spec.Benchmark, spec.Scheduler, err)
		return
	}
	b, err := json.Marshal(res)
	if err != nil {
		c.failf("%s %s/%s: encode results: %v", where, spec.Benchmark, spec.Scheduler, err)
		return
	}
	c.mu.Lock()
	first, ok := c.seen[hash]
	if !ok {
		c.seen[hash] = b
	}
	c.mu.Unlock()
	if ok && !bytes.Equal(first, b) {
		c.failf("%s %s/%s: results differ from an earlier sighting of hash %.12s",
			where, spec.Benchmark, spec.Scheduler, hash)
	}
}

// sighting is one appearance of a spec's Results during a timed phase.
// Phases only collect sightings and check them once their clock has
// stopped, so the checks cost the measured work nothing.
type sighting struct {
	where, hash string
	spec        dramlat.RunSpec
	res         dramlat.Results
}

// results checks the sightings a timed phase collected.
func (c *checker) results(ss []sighting) {
	for _, s := range ss {
		c.result(s.where, s.hash, s.spec, s.res)
	}
}

// validate applies the per-engine invariants: an exact run drained with
// IPC exactly Instr/Ticks; a sampled run is marked approximate, measured
// at least one window and has finite error bars.
func validate(spec dramlat.RunSpec, res dramlat.Results) error {
	if res.Ticks <= 0 {
		return fmt.Errorf("ticks = %d, want > 0", res.Ticks)
	}
	if spec.IsSampled() {
		if !res.Approximate || res.Sampling == nil {
			return errors.New("sampled result not marked approximate")
		}
		sp := res.Sampling
		if sp.Windows < 1 {
			return fmt.Errorf("sampled result has %d windows, want >= 1", sp.Windows)
		}
		for _, e := range []float64{sp.IPCErr, sp.GapP50Err, sp.GapP90Err, sp.GapP99Err} {
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				return fmt.Errorf("sampled result has CI half-width %v", e)
			}
		}
		return nil
	}
	if res.Approximate {
		return errors.New("exact run marked approximate")
	}
	if !res.Drained {
		return errors.New("run did not drain")
	}
	if want := float64(res.Instr) / float64(res.Ticks); res.IPC != want {
		return fmt.Errorf("IPC %v != Instr/Ticks %v", res.IPC, want)
	}
	return nil
}
