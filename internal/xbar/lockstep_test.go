package xbar

import (
	"fmt"
	"math/rand"
	"testing"

	"dramlat/internal/memreq"
)

// TestXbarLockstep drives the bitset crossbar and the full-scan
// reference with the same random Inject/Respond/PeekPart/PopPart/
// PopResponse sequence and requires identical returns and identical
// wake bounds after every operation. Partition counts of 1, 6, 64, 65
// and 130 and SM counts up to 67 put the rotation start in every word
// of one-, two- and three-word bitsets, so the wrap-around walk is
// exercised in both directions.
func TestXbarLockstep(t *testing.T) {
	for _, numPart := range []int{1, 6, 64, 65, 130} {
		for _, numSM := range []int{1, 5, 67} {
			for _, noInterleave := range []bool{false, true} {
				name := fmt.Sprintf("part%d/sm%d/noint=%v", numPart, numSM, noInterleave)
				t.Run(name, func(t *testing.T) {
					seed := int64(numPart*1000 + numSM)
					if noInterleave {
						seed = -seed
					}
					lockstep(t, rand.New(rand.NewSource(seed)), numSM, numPart, noInterleave)
				})
			}
		}
	}
}

func lockstep(t *testing.T, rng *rand.Rand, numSM, numPart int, noInterleave bool) {
	const ops = 6000
	lat := int64(rng.Intn(4))
	x := New(numSM, numPart, lat, 4)
	ref := newRef(numSM, numPart, lat, 4)
	x.NoInterleave, ref.NoInterleave = noInterleave, noInterleave
	// Concentrate traffic on a few SMs and partitions (plus the last
	// index of each) so queues actually build up at the large sizes.
	hotSM := func() int {
		if rng.Intn(4) == 0 {
			return numSM - 1
		}
		return rng.Intn(min(numSM, 3))
	}
	hotPart := func() int {
		if rng.Intn(4) == 0 {
			return numPart - 1 - rng.Intn(min(numPart, 2))
		}
		return rng.Intn(min(numPart, 4))
	}
	var now int64
	var id uint64
	for op := 0; op < ops; op++ {
		if rng.Intn(3) == 0 {
			now += int64(rng.Intn(3))
		}
		switch rng.Intn(5) {
		case 0, 1:
			id++
			sm := hotSM()
			r := &memreq.Request{ID: id, Channel: hotPart(), Group: memreq.GroupID{SM: uint16(sm), Load: 1}}
			if got, want := x.Inject(sm, r, now), ref.Inject(sm, r, now); got != want {
				t.Fatalf("op %d: Inject = %v, reference %v", op, got, want)
			}
		case 2:
			id++
			part, sm := hotPart(), hotSM()
			r := &memreq.Request{ID: id, Group: memreq.GroupID{SM: uint16(sm), Load: 1}}
			if rng.Intn(2) == 0 {
				x.Respond(part, r, now)
				ref.Respond(part, r, now)
			} else {
				x.RespondTo(part, sm, r, now)
				ref.RespondTo(part, sm, r, now)
			}
		case 3:
			part := hotPart()
			got, want := x.PeekPart(part, now), ref.PeekPart(part, now)
			if got != want {
				t.Fatalf("op %d: PeekPart(%d, %d) = %v, reference %v", op, part, now, got, want)
			}
			if got != nil && rng.Intn(4) != 0 {
				x.PopPart(part)
				ref.PopPart(part)
			}
		case 4:
			sm := hotSM()
			if got, want := x.PopResponse(sm, now), ref.PopResponse(sm, now); got != want {
				t.Fatalf("op %d: PopResponse(%d, %d) = %v, reference %v", op, sm, now, got, want)
			}
		}
		for p := 0; p < numPart; p++ {
			if got, want := x.ReqWake(p), ref.ReqWake(p); got != want {
				t.Fatalf("op %d: ReqWake(%d) = %d, reference %d", op, p, got, want)
			}
		}
		for s := 0; s < numSM; s++ {
			if got, want := x.RespWake(s), ref.RespWake(s); got != want {
				t.Fatalf("op %d: RespWake(%d) = %d, reference %d", op, s, got, want)
			}
		}
		x.RecomputeMins()
		ref.RecomputeMins()
		if x.MinReqWake() != ref.MinReqWake() || x.MinRespWake() != ref.MinRespWake() {
			t.Fatalf("op %d: mins (%d, %d), reference (%d, %d)", op,
				x.MinReqWake(), x.MinRespWake(), ref.MinReqWake(), ref.MinRespWake())
		}
		if x.Empty() != ref.Empty() {
			t.Fatalf("op %d: Empty = %v, reference %v", op, x.Empty(), ref.Empty())
		}
	}
	if x.Injected != ref.Injected || x.Rejected != ref.Rejected || x.Responses != ref.Responses {
		t.Fatalf("counters (%d, %d, %d), reference (%d, %d, %d)",
			x.Injected, x.Rejected, x.Responses, ref.Injected, ref.Rejected, ref.Responses)
	}
}

// TestResponseSteadyStateAllocs pins the response path at zero
// allocations once the FIFOs have grown to their working size.
func TestResponseSteadyStateAllocs(t *testing.T) {
	const numSM, numPart = 30, 6
	x := New(numSM, numPart, 20, 8)
	reqs := make([]*memreq.Request, numSM)
	for s := range reqs {
		reqs[s] = &memreq.Request{Group: memreq.GroupID{SM: uint16(s), Load: 1}}
	}
	var now int64
	round := func() {
		for p := 0; p < numPart; p++ {
			for s := 0; s < numSM; s++ {
				x.Respond(p, reqs[s], now)
			}
		}
		now += x.Latency
		for s := 0; s < numSM; s++ {
			for x.PopResponse(s, now) != nil {
			}
		}
		x.RecomputeMins()
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("response path allocates %.1f per round", a)
	}
	if !x.Empty() {
		t.Fatal("responses left queued")
	}
}
