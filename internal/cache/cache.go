// Package cache implements the set-associative LRU caches of the memory
// hierarchy (Table II: 32KB 8-way L1 per SM, 128KB 16-way L2 slice per
// memory partition, 128B lines) together with MSHRs that merge concurrent
// misses to the same line.
package cache

import "math/bits"

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	MSHRs     int // max outstanding distinct miss lines
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  int64 // LRU stamp
}

// MSHR tracks one in-flight miss line and the requests merged into it.
type MSHR struct {
	Line    uint64
	Owner   any   // the primary (in-flight) request's identity
	Waiters []any // opaque waiter handles owned by the caller
}

// Cache is a blocking-free set-associative cache model. It tracks tags
// only; data are not simulated.
type Cache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	lineBits uint
	clock    int64

	// mshrs maps line address to in-flight MSHR: an open-addressed table
	// with linear probing over a power-of-two slot array kept at most
	// half full, and backward-shift deletion, so a lookup ends at the
	// first empty slot and never meets a tombstone. It grows on demand:
	// Config.MSHRs has no upper limit, so it cannot be sized up front.
	mshrs     []mshrSlot
	mshrN     int
	mshrShift uint // 64 - log2(len(mshrs))
	// mshrFree recycles released MSHRs: misses dominate the simulator's
	// steady-state allocation profile, and the registers are fixed
	// hardware structures, so the model should not allocate per miss
	// either. A released MSHR may be handed out again by the very next
	// MSHRAlloc — callers must finish reading a released MSHR before
	// allocating from the same cache (true of the SM and partition call
	// graphs: releases and the waiter fan-out run strictly between
	// allocs).
	mshrFree []*MSHR

	Hits       int64
	Misses     int64
	Evictions  int64
	DirtyEvict int64
}

// New builds a cache; SizeBytes/LineBytes/Ways must describe a power-of-two
// number of sets.
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines <= 0 || lines%cfg.Ways != 0 {
		panic("cache: size/line/ways mismatch")
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	c := &Cache{
		cfg:      cfg,
		sets:     make([][]line, nsets),
		setMask:  uint64(nsets - 1),
		lineBits: lb,
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

func (c *Cache) set(addr uint64) ([]line, uint64) {
	tag := addr >> c.lineBits
	return c.sets[tag&c.setMask], tag
}

// Lookup probes for the line containing addr, updating LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.set(addr)
	c.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Contains probes without touching LRU or hit/miss counters.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr (marking it dirty when dirty is
// set). It returns the evicted victim's address and dirtiness when a valid
// line was displaced. Filling an already-resident line merges the dirty
// bit instead of evicting.
func (c *Cache) Fill(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set, tag := c.set(addr)
	c.clock++
	// Already resident: refresh.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			set[i].dirty = set[i].dirty || dirty
			return 0, false, false
		}
	}
	// Pick an invalid way, else the LRU way.
	victimIdx := -1
	for i := range set {
		if !set[i].valid {
			victimIdx = i
			break
		}
	}
	if victimIdx == -1 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[victimIdx].used {
				victimIdx = i
			}
		}
		v := set[victimIdx]
		victim = v.tag << c.lineBits
		victimDirty = v.dirty
		evicted = true
		c.Evictions++
		if v.dirty {
			c.DirtyEvict++
		}
	}
	set[victimIdx] = line{tag: tag, valid: true, dirty: dirty, used: c.clock}
	return victim, victimDirty, evicted
}

// Invalidate drops the line containing addr if resident, returning whether
// it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			wasDirty = set[i].dirty
			set[i].valid = false
			return wasDirty, true
		}
	}
	return false, false
}

// MarkDirty sets the dirty bit of a resident line (write hit).
func (c *Cache) MarkDirty(addr uint64) bool {
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			return true
		}
	}
	return false
}

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// --- MSHR management ---

// mshrSlot is one cell of the MSHR table; m == nil marks it empty.
type mshrSlot struct {
	line uint64
	m    *MSHR
}

// mshrHome returns the slot a line address hashes to (Fibonacci hashing
// of the line number).
func (c *Cache) mshrHome(line uint64) int {
	return int((line >> c.lineBits) * 0x9e3779b97f4a7c15 >> c.mshrShift)
}

// mshrFind returns the slot holding line, or -1.
func (c *Cache) mshrFind(line uint64) int {
	if c.mshrN == 0 {
		return -1
	}
	mask := len(c.mshrs) - 1
	for i := c.mshrHome(line); ; i = (i + 1) & mask {
		s := &c.mshrs[i]
		if s.m == nil {
			return -1
		}
		if s.line == line {
			return i
		}
	}
}

// mshrInsert places m (whose line is absent) in the table, doubling it
// first when the insert would fill more than half the slots.
func (c *Cache) mshrInsert(m *MSHR) {
	if 2*(c.mshrN+1) > len(c.mshrs) {
		old := c.mshrs
		n := max(8, 2*len(old))
		c.mshrs = make([]mshrSlot, n)
		c.mshrShift = uint(64 - bits.TrailingZeros(uint(n)))
		for _, s := range old {
			if s.m != nil {
				c.mshrPlace(s)
			}
		}
	}
	c.mshrPlace(mshrSlot{m.Line, m})
	c.mshrN++
}

func (c *Cache) mshrPlace(s mshrSlot) {
	mask := len(c.mshrs) - 1
	i := c.mshrHome(s.line)
	for c.mshrs[i].m != nil {
		i = (i + 1) & mask
	}
	c.mshrs[i] = s
}

// mshrDelete empties slot i, shifting later members of its probe run
// back so every remaining entry stays reachable from its home slot.
func (c *Cache) mshrDelete(i int) {
	mask := len(c.mshrs) - 1
	for j := (i + 1) & mask; c.mshrs[j].m != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then moving it would put it before its
		// home, out of its probe path.
		k := c.mshrHome(c.mshrs[j].line)
		if i <= j {
			if i < k && k <= j {
				continue
			}
		} else if i < k || k <= j {
			continue
		}
		c.mshrs[i] = c.mshrs[j]
		i = j
	}
	c.mshrs[i] = mshrSlot{}
	c.mshrN--
}

// MSHRFor returns the in-flight MSHR for the line containing addr, or nil.
func (c *Cache) MSHRFor(addr uint64) *MSHR {
	if i := c.mshrFind(addr &^ uint64(c.cfg.LineBytes-1)); i >= 0 {
		return c.mshrs[i].m
	}
	return nil
}

// MSHRAlloc allocates an MSHR for the line containing addr. It returns nil
// when all MSHRs are busy (the miss must be retried later).
func (c *Cache) MSHRAlloc(addr uint64) *MSHR {
	if c.mshrN >= c.cfg.MSHRs {
		return nil
	}
	key := addr &^ uint64(c.cfg.LineBytes-1)
	if c.mshrFind(key) >= 0 {
		panic("cache: MSHR already allocated for line")
	}
	var m *MSHR
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		// Waiter handles are cleared at reuse time, not release time,
		// because MSHRRelease's caller still reads them.
		ws := m.Waiters
		for i := range ws {
			ws[i] = nil
		}
		*m = MSHR{Line: key, Waiters: ws[:0]}
	} else {
		m = &MSHR{Line: key}
	}
	c.mshrInsert(m)
	return m
}

// MSHRRelease removes and returns the MSHR for the line containing addr
// (on fill). It returns nil if none exists.
func (c *Cache) MSHRRelease(addr uint64) *MSHR {
	i := c.mshrFind(addr &^ uint64(c.cfg.LineBytes-1))
	if i < 0 {
		return nil
	}
	m := c.mshrs[i].m
	c.mshrDelete(i)
	c.mshrFree = append(c.mshrFree, m)
	return m
}

// MSHRCount returns the number of in-flight miss lines.
func (c *Cache) MSHRCount() int { return c.mshrN }
