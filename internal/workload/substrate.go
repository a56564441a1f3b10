package workload

import "math/rand"

// csr is a compressed-sparse-row graph/matrix: the substrate for bfs,
// sssp, sp and spmv. Values are not stored — only the structure matters
// for address generation — but colIdx contents are real so that dependent
// gathers (x[col[j]], dist[neighbor]) chase genuine indices.
type csr struct {
	n      int
	rowPtr []int32 // len n+1
	colIdx []int32 // len rowPtr[n]
}

// randCSR builds a graph with a skewed degree distribution (a crude R-MAT
// stand-in: most nodes near avgDeg, a heavy tail) and optional locality:
// with probability pLocal an edge lands within a +-window of its source
// (mesh/band structure), otherwise uniformly at random.
func randCSR(rng *rand.Rand, n, avgDeg int, pLocal float64, window int) *csr {
	deg := make([]int32, n)
	var m int32
	for i := range deg {
		d := avgDeg/2 + rng.Intn(avgDeg) // avgDeg/2 .. 1.5*avgDeg
		if rng.Intn(64) == 0 {
			d *= 8 // heavy-tail hub
		}
		if d < 1 {
			d = 1
		}
		deg[i] = int32(d)
		m += int32(d)
	}
	g := &csr{n: n, rowPtr: make([]int32, n+1), colIdx: make([]int32, m)}
	for i := 0; i < n; i++ {
		g.rowPtr[i+1] = g.rowPtr[i] + deg[i]
	}
	for i := 0; i < n; i++ {
		for e := g.rowPtr[i]; e < g.rowPtr[i+1]; e++ {
			if rng.Float64() < pLocal {
				d := rng.Intn(2*window+1) - window
				c := ((i+d)%n + n) % n // ring wrap, valid even for n < window
				g.colIdx[e] = int32(c)
			} else {
				g.colIdx[e] = int32(rng.Intn(n))
			}
		}
	}
	return g
}

// degree returns the out-degree of node i.
func (g *csr) degree(i int) int { return int(g.rowPtr[i+1] - g.rowPtr[i]) }

// edges returns the column indices of node i's edges.
func (g *csr) edges(i int) []int32 { return g.colIdx[g.rowPtr[i]:g.rowPtr[i+1]] }

// octree is the Barnes-Hut substrate: a pool of tree nodes allocated
// breadth-first the way the Lonestar builder does. Breadth-first
// allocation gives each level a consecutive id range, so the tree is
// stored as those ranges: levels[d] is the first id of level d and
// levels[len-1] the pool size. The kernels only ever pick nodes by
// level, so no child pointers are kept.
type octree struct {
	levels []int32
}

// randOctree builds a tree with the given depth; fanout thins with depth
// (real octrees are sparse near the leaves).
func randOctree(rng *rand.Rand, depth int) *octree {
	t := &octree{levels: []int32{0}}
	first, pool := int32(0), int32(1) // current level is [first, pool)
	for d := 0; d < depth; d++ {
		maxKids := 8
		if d > 2 {
			maxKids = 4
		}
		next := pool
		for n := first; n < pool; n++ {
			kids := 0
			for c := 0; c < 8 && kids < maxKids; c++ {
				if rng.Intn(8) < maxKids {
					next++
					kids++
				}
			}
		}
		if next == pool {
			// Levels 0-2 always take all eight children, so dying out
			// needs each of at least 512 nodes to draw no child: odds
			// of 2^-4096 or less.
			break
		}
		t.levels = append(t.levels, pool)
		first, pool = pool, next
	}
	t.levels = append(t.levels, pool)
	return t
}

// depth returns the number of levels.
func (t *octree) depth() int { return len(t.levels) - 1 }

// nodeCount returns the pool size.
func (t *octree) nodeCount() int { return int(t.levels[len(t.levels)-1]) }

// pick returns a random node id at the given level (clamped).
func (t *octree) pick(rng *rand.Rand, level int) int32 {
	level = min(level, t.depth()-1)
	first := t.levels[level]
	return first + int32(rng.Intn(int(t.levels[level+1]-first)))
}
