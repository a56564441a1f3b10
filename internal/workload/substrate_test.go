package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandCSRWellFormed(t *testing.T) {
	f := func(seed int64, nRaw, degRaw uint16) bool {
		n := int(nRaw%2000) + 10
		deg := int(degRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		g := randCSR(rng, n, deg, 0.5, 64)
		if g.n != n || len(g.rowPtr) != n+1 || g.rowPtr[0] != 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if g.rowPtr[i+1] < g.rowPtr[i] {
				return false // rowPtr must be non-decreasing
			}
			if g.degree(i) < 1 {
				return false // every node has at least one edge
			}
		}
		if int(g.rowPtr[n]) != len(g.colIdx) {
			return false
		}
		for _, c := range g.colIdx {
			if c < 0 || int(c) >= n {
				return false // edges must stay in range
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandCSRLocalityKnob(t *testing.T) {
	// High pLocal with a small window must keep most edges near the
	// diagonal; low pLocal must scatter them.
	count := func(pLocal float64) (near, far int) {
		rng := rand.New(rand.NewSource(5))
		g := randCSR(rng, 10000, 8, pLocal, 64)
		for i := 0; i < g.n; i++ {
			for _, c := range g.edges(i) {
				d := int(c) - i
				if d < 0 {
					d = -d
				}
				// Account for the ring wrap.
				if w := g.n - d; w < d {
					d = w
				}
				if d <= 64 {
					near++
				} else {
					far++
				}
			}
		}
		return
	}
	nearHi, farHi := count(0.95)
	nearLo, farLo := count(0.05)
	if float64(nearHi)/float64(nearHi+farHi) < 0.9 {
		t.Fatalf("pLocal=0.95 produced only %d/%d local edges", nearHi, nearHi+farHi)
	}
	if float64(nearLo)/float64(nearLo+farLo) > 0.2 {
		t.Fatalf("pLocal=0.05 produced %d/%d local edges", nearLo, nearLo+farLo)
	}
}

func TestRandCSRDeterministic(t *testing.T) {
	g1 := randCSR(rand.New(rand.NewSource(9)), 500, 6, 0.5, 32)
	g2 := randCSR(rand.New(rand.NewSource(9)), 500, 6, 0.5, 32)
	if len(g1.colIdx) != len(g2.colIdx) {
		t.Fatal("nondeterministic size")
	}
	for i := range g1.colIdx {
		if g1.colIdx[i] != g2.colIdx[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestOctreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := randOctree(rng, 6)
	if tr.nodeCount() < 10 {
		t.Fatalf("tiny tree: %d nodes", tr.nodeCount())
	}
	if tr.depth() < 3 {
		t.Fatalf("only %d levels", tr.depth())
	}
	// The level ranges start at the root, follow one another without gap
	// or overlap, none is empty, and together they cover the pool.
	if tr.levels[0] != 0 || tr.levels[1] != 1 {
		t.Fatalf("root level is [%d, %d), want [0, 1)", tr.levels[0], tr.levels[1])
	}
	for d := 0; d < tr.depth(); d++ {
		if tr.levels[d+1] <= tr.levels[d] {
			t.Fatalf("level %d is [%d, %d)", d, tr.levels[d], tr.levels[d+1])
		}
	}
	if int(tr.levels[tr.depth()]) != tr.nodeCount() {
		t.Fatalf("levels end at %d, pool has %d nodes", tr.levels[tr.depth()], tr.nodeCount())
	}
	// Full fanout above depth 3: 1, 8, 64, 512 nodes.
	for d, want := range []int32{1, 8, 64, 512} {
		if got := tr.levels[d+1] - tr.levels[d]; got != want {
			t.Fatalf("level %d has %d nodes, want %d", d, got, want)
		}
	}
	// pick must stay within the requested level, clamped to the deepest.
	for lvl := 0; lvl < 10; lvl++ {
		in := min(lvl, tr.depth()-1)
		for i := 0; i < 50; i++ {
			n := tr.pick(rng, lvl)
			if n < tr.levels[in] || n >= tr.levels[in+1] {
				t.Fatalf("pick(%d) = %d outside level %d [%d, %d)", lvl, n, in, tr.levels[in], tr.levels[in+1])
			}
		}
	}
}

func TestArenaAllocations(t *testing.T) {
	a := newArena()
	x := a.alloc(100)
	y := a.alloc(5000)
	z := a.alloc(1)
	if x%4096 != 0 || y%4096 != 0 || z%4096 != 0 {
		t.Fatalf("allocations not row aligned: %x %x %x", x, y, z)
	}
	if y <= x || z <= y || y-x < 100 || z-y < 5000 {
		t.Fatalf("overlapping arena allocations: %x %x %x", x, y, z)
	}
}

func TestScaledClampsToOne(t *testing.T) {
	p := DefaultParams()
	p.Scale = 0.0001
	if p.scaled(10) != 1 {
		t.Fatalf("scaled(10) = %d at tiny scale, want clamp to 1", p.scaled(10))
	}
	p.Scale = 2
	if p.scaled(10) != 20 {
		t.Fatalf("scaled(10) = %d at 2x", p.scaled(10))
	}
}
