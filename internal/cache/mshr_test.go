package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMSHRTableMatchesMap drives the open-addressed MSHR table and a Go
// map with the same random alloc/lookup/release sequence. The line
// universe is a few times the MSHR count, so the table fills up (allocs
// must fail exactly when the map holds MSHRs entries), probe runs form,
// and releases land in the middle of them.
func TestMSHRTableMatchesMap(t *testing.T) {
	for _, mshrs := range []int{1, 4, 32, 200} {
		t.Run(fmt.Sprintf("mshrs%d", mshrs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mshrs)))
			c := New(Config{SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: mshrs})
			ref := map[uint64]*MSHR{}
			lines := 3*mshrs + 2
			fullSeen := false
			for op := 0; op < 40_000; op++ {
				// Any byte of the line addresses it.
				addr := uint64(rng.Intn(lines))*128 + uint64(rng.Intn(128))
				key := addr &^ 127
				switch rng.Intn(3) {
				case 0:
					if ref[key] != nil {
						continue // double alloc panics; covered elsewhere
					}
					m := c.MSHRAlloc(addr)
					if len(ref) >= mshrs {
						fullSeen = true
						if m != nil {
							t.Fatalf("op %d: alloc succeeded with %d of %d MSHRs busy", op, len(ref), mshrs)
						}
						continue
					}
					if m == nil || m.Line != key {
						t.Fatalf("op %d: alloc(%#x) = %v with %d of %d busy", op, addr, m, len(ref), mshrs)
					}
					ref[key] = m
				case 1:
					if got := c.MSHRFor(addr); got != ref[key] {
						t.Fatalf("op %d: MSHRFor(%#x) = %p, map %p", op, addr, got, ref[key])
					}
				case 2:
					got := c.MSHRRelease(addr)
					if got != ref[key] {
						t.Fatalf("op %d: MSHRRelease(%#x) = %p, map %p", op, addr, got, ref[key])
					}
					delete(ref, key)
				}
				if c.MSHRCount() != len(ref) {
					t.Fatalf("op %d: count %d, map %d", op, c.MSHRCount(), len(ref))
				}
			}
			if !fullSeen {
				t.Fatal("table never filled")
			}
			for key, m := range ref {
				if c.MSHRFor(key) != m {
					t.Fatalf("line %#x lost", key)
				}
			}
		})
	}
}

// TestMSHRReleaseMidChain builds one probe run of lines that all hash to
// the same home slot, releases from its middle and its head, and checks
// that every remaining line is still found and re-allocation fills the
// hole.
func TestMSHRReleaseMidChain(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: 64})
	first := c.MSHRAlloc(0)
	home := c.mshrHome(0)
	size := len(c.mshrs)
	chain := []uint64{0}
	for line := uint64(1); len(chain) < size/2; line++ {
		if c.mshrHome(line*128) == home {
			chain = append(chain, line*128)
			c.MSHRAlloc(line * 128)
		}
	}
	if len(c.mshrs) != size {
		t.Fatalf("table grew from %d to %d slots while building the chain", size, len(c.mshrs))
	}
	for i, line := range chain {
		if got := c.mshrFind(line); got != (home+i)&(size-1) {
			t.Fatalf("line %#x at slot %d, want %d", line, got, (home+i)&(size-1))
		}
	}
	mid := chain[len(chain)/2]
	if c.MSHRRelease(mid) == nil {
		t.Fatal("mid-chain release found nothing")
	}
	if c.MSHRRelease(0) != first {
		t.Fatal("chain head release returned the wrong MSHR")
	}
	for _, line := range chain {
		want := line != mid && line != 0
		if got := c.MSHRFor(line) != nil; got != want {
			t.Fatalf("line %#x present=%v after releases, want %v", line, got, want)
		}
	}
	if c.MSHRAlloc(mid) == nil || c.MSHRFor(mid) == nil {
		t.Fatal("re-allocating a released line failed")
	}
	if c.MSHRCount() != len(chain)-1 {
		t.Fatalf("count %d, want %d", c.MSHRCount(), len(chain)-1)
	}
}

// TestMSHRSteadyStateAllocs pins MSHR alloc/lookup/release at zero
// allocations once the table and the MSHR freelist are warm.
func TestMSHRSteadyStateAllocs(t *testing.T) {
	c := New(Config{SizeBytes: 4096, LineBytes: 128, Ways: 4, MSHRs: 32})
	var base uint64
	cycle := func() {
		for i := uint64(0); i < 32; i++ {
			m := c.MSHRAlloc(base + i*4096)
			m.Waiters = append(m.Waiters, nil)
		}
		for i := uint64(0); i < 32; i++ {
			if c.MSHRFor(base+i*4096) == nil || c.MSHRRelease(base+i*4096) == nil {
				t.Fatal("lost an MSHR")
			}
		}
		base += 128
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("MSHR alloc/release allocates %.1f per cycle", a)
	}
}
