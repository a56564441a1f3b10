// Package workload generates the benchmark suites of Table III as warp
// instruction streams. The paper ran CUDA binaries from Rodinia, MARS,
// LonestarGPU and Parboil under GPGPU-Sim; those binaries and traces are
// not available here, so each benchmark is reproduced as a kernel-level
// address-trace generator that walks the same data structures the original
// kernel walks (CSR graphs and matrices, unstructured meshes, hash tables,
// octrees, dynamic-programming bands, block-matching windows).
//
// The substitution preserves what the memory schedulers actually see: the
// warp structure, coalescing behaviour, row locality, bank/channel spread,
// and write intensity of the access stream. Each generator documents its
// calibration targets against the paper's characterization:
//
//   - Fig 2: irregular loads average ~5.9 requests after coalescing and
//     ~56% of loads produce more than one request;
//   - Fig 3: warps touch ~2.5 memory controllers on average; cfd, spmv,
//     sssp and sp touch ~3.2 while sad, nw, SS and bfs touch fewer than 2;
//   - Section III-A: ~30% of a warp's requests fall in the same DRAM row
//     and a warp touches ~2 banks;
//   - Fig 12: nw, SS and sad are write-intensive.
package workload

import (
	"fmt"
	"math/rand"

	"dramlat/internal/gpu"
	"dramlat/internal/sm"
)

// Params sizes a workload build.
type Params struct {
	NumSMs     int
	WarpsPerSM int
	WarpSize   int
	// Scale multiplies the default work per warp; 1.0 is the full-size
	// run used in EXPERIMENTS.md, smaller values give quick runs.
	Scale float64
	Seed  int64
}

// DefaultParams matches the Table II machine.
func DefaultParams() Params {
	return Params{NumSMs: 30, WarpsPerSM: 32, WarpSize: 32, Scale: 1.0, Seed: 1}
}

func (p Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Benchmark is one generator.
type Benchmark struct {
	Name      string
	Suite     string
	Irregular bool
	Desc      string
	Build     func(p Params) gpu.Workload
}

// Irregular returns the eleven irregular, memory-divergent benchmarks of
// Table III.
func Irregular() []Benchmark {
	return []Benchmark{
		{"bfs", "Rodinia", true, "breadth-first search over a CSR graph", BuildBFS},
		{"cfd", "Rodinia", true, "unstructured-mesh Euler solver neighbor gather", BuildCFD},
		{"nw", "Rodinia", true, "Needleman-Wunsch wavefront alignment", BuildNW},
		{"kmeans", "Rodinia", true, "k-means clustering distance phase", BuildKmeans},
		{"PVC", "MARS", true, "PageViewCount hash-based map/reduce", BuildPVC},
		{"SS", "MARS", true, "SimilarityScore matrix phase", BuildSS},
		{"sp", "LonestarGPU", true, "survey propagation on a random factor graph", BuildSP},
		{"bh", "LonestarGPU", true, "Barnes-Hut octree force computation", BuildBH},
		{"sssp", "LonestarGPU", true, "single-source shortest paths worklist", BuildSSSP},
		{"spmv", "Parboil", true, "CSR sparse matrix - dense vector multiply", BuildSpMV},
		{"sad", "Parboil", true, "sum-of-absolute-differences block search", BuildSAD},
	}
}

// Regular returns the six structured, bandwidth-sensitive benchmarks of
// Section VI-A (streaming access patterns that coalesce to one request per
// load in the common case).
func Regular() []Benchmark {
	return []Benchmark{
		{"streamcluster", "Rodinia", false, "streaming clustering distance sweep", BuildStreamcluster},
		{"srad2", "Rodinia", false, "structured-grid diffusion stencil", BuildSRAD2},
		{"bp", "Rodinia", false, "back-propagation dense layers", BuildBP},
		{"hotspot", "Rodinia", false, "structured thermal stencil", BuildHotspot},
		{"invertedindex", "MARS", false, "streaming index build", BuildInvertedIndex},
		{"pageviewrank", "MARS", false, "streaming rank pass", BuildPageViewRank},
	}
}

// All returns every benchmark.
func All() []Benchmark {
	return append(Irregular(), Regular()...)
}

// ByName finds a benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// ---- shared construction helpers ----

// arena allocates non-overlapping virtual address ranges for the kernel's
// arrays, 4KB-aligned so arrays start on row boundaries like a real
// allocator.
type arena struct{ next uint64 }

func newArena() *arena { return &arena{next: 1 << 20} }

func (a *arena) alloc(bytes uint64) uint64 {
	const align = 4096
	base := (a.next + align - 1) &^ (align - 1)
	a.next = base + bytes
	return base
}

// builder accumulates per-warp programs.
type builder struct {
	p     Params
	progs [][]sm.Program
}

func newBuilder(p Params) *builder {
	b := &builder{p: p, progs: make([][]sm.Program, p.NumSMs)}
	for i := range b.progs {
		b.progs[i] = make([]sm.Program, p.WarpsPerSM)
	}
	return b
}

// eachWarp invokes f for every (sm, warp) with a per-warp RNG and global
// warp index; f returns the warp's program. One generator serves every
// warp, re-seeded per warp (which restarts its stream exactly as a fresh
// source would), so f must not keep rng past its return.
func (b *builder) eachWarp(f func(rng *rand.Rand, global int) sm.Program) {
	rng := rand.New(rand.NewSource(0))
	for s := 0; s < b.p.NumSMs; s++ {
		for w := 0; w < b.p.WarpsPerSM; w++ {
			g := s*b.p.WarpsPerSM + w
			rng.Seed(b.p.Seed + int64(g)*7919)
			b.progs[s][w] = f(rng, g)
		}
	}
}

func (b *builder) workload(name string) gpu.Workload {
	return gpu.Workload{Name: name, Programs: b.progs}
}

// gather emits a warp load of one 4-byte element per lane.
func gather(addrs []uint64) sm.Insn { return sm.Insn{Kind: sm.Load, Addrs: addrs} }

// scatter emits a warp store of one 4-byte element per lane.
func scatter(addrs []uint64) sm.Insn { return sm.Insn{Kind: sm.Store, Addrs: addrs} }

// coalescedLoad reads warpSize consecutive 4B elements starting at base +
// idx*4 — one or two 128B lines.
func coalescedLoad(base uint64, idx int, warpSize int) sm.Insn {
	addrs := make([]uint64, warpSize)
	for i := range addrs {
		addrs[i] = base + uint64(idx+i)*4
	}
	return sm.Insn{Kind: sm.Load, Addrs: addrs}
}

func coalescedStore(base uint64, idx int, warpSize int) sm.Insn {
	in := coalescedLoad(base, idx, warpSize)
	in.Kind = sm.Store
	return in
}

// elem4 returns the address of a 4-byte element.
func elem4(base uint64, idx int) uint64 { return base + uint64(idx)*4 }

func compute() sm.Insn { return sm.Insn{Kind: sm.Compute} }

// computeN appends n compute instructions.
func computeN(p sm.Program, n int) sm.Program {
	for i := 0; i < n; i++ {
		p = append(p, compute())
	}
	return p
}
