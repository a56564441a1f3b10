// Package xbar models the crossbar interconnect between the SIMT cores and
// the memory partitions (Section II-B). Its two fidelity-critical
// properties, both from Section IV-B2:
//
//   - requests from a single SM are never re-ordered (this is what makes
//     the warp sorter's "last request to this channel" tag a reliable
//     group-complete signal), and
//   - requests from different SMs interleave at each partition port (this
//     is what defeats plain FCFS scheduling, Section III-A).
//
// A NoInterleave mode services one SM's queue to exhaustion before moving
// on — the interconnect assumed by the WAFCFS comparator (Yuan et al.
// [51], Section VI-C2).
package xbar

import (
	"math/bits"

	"dramlat/internal/memreq"
)

// never is the wakeup-contract sentinel (see dram.Never).
const never int64 = 1 << 62

type entry struct {
	req     *memreq.Request
	readyAt int64
}

// ring is a reusable FIFO of entries: a power-of-two circular buffer that
// grows on demand and never re-allocates on steady-state push/pop churn
// (the old slice queues re-sliced on pop and re-allocated on append,
// churning the allocator on the hottest path in the simulator).
type ring struct {
	buf  []entry
	head int
	n    int
}

func (r *ring) len() int { return r.n }

func (r *ring) front() *entry {
	return &r.buf[r.head]
}

func (r *ring) push(e entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

func (r *ring) pop() entry {
	e := r.buf[r.head]
	r.buf[r.head] = entry{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

func (r *ring) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]entry, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// bitset is a fixed-width set of small integers packed into words.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// rotWord returns the k-th word of a walk over b in rotation order
// starting at index start, for k in [0, len(b)], along with the index of
// its bit 0. Word 0 keeps the bits at or above start in the start word;
// word len(b) revisits the start word for the bits below start. Walking
// k = 0..len(b) and each word's set bits from low to high visits every
// member exactly once in the order start, start+1, ..., wrapping to 0.
func (b bitset) rotWord(start, k int) (uint64, int) {
	w0 := start >> 6
	wi := w0 + k
	if wi >= len(b) {
		wi -= len(b)
	}
	word := b[wi]
	switch k {
	case 0:
		word &= ^uint64(0) << uint(start&63)
	case len(b):
		word &= 1<<uint(start&63) - 1
	}
	return word, wi << 6
}

// Xbar is the SM <-> partition crossbar.
type Xbar struct {
	NumSM, NumPart int
	// Latency is the one-way pipe latency in ticks.
	Latency int64
	// CapPerQueue bounds each (SM,partition) request FIFO; injection
	// fails (and the SM retries) when full.
	CapPerQueue int
	// NoInterleave makes each partition port drain one SM completely
	// before rotating (WAFCFS interconnect).
	NoInterleave bool

	toPart [][]ring // [part][sm] request FIFOs
	toSM   [][]ring // [sm][part] response FIFOs
	// reqBusy[part] holds the SMs with a non-empty FIFO toward part;
	// respBusy[sm] the partitions with a non-empty FIFO toward sm. The
	// arbiters and the wake recomputations walk only these set bits, in
	// round-robin order, instead of every queue.
	reqBusy  []bitset
	respBusy []bitset
	rrReq    []int // per-partition SM rotation
	curSM    []int // per-partition sticky SM (NoInterleave)
	rrResp   []int // per-SM partition rotation

	// pendSM/pendRot record, per partition, which SM's head the last
	// successful PeekPart returned and the round-robin rotation PopPart
	// must apply when it consumes it. Keeping the pending pop as flat
	// per-partition state lets PeekPart avoid allocating a pop closure
	// per request on the hottest crossbar path.
	pendSM  []int
	pendRot []int

	// Wakeup bookkeeping for the event-driven system loop. reqWake and
	// respWake are the exact earliest head readyAt of the queues toward a
	// partition / an SM (never when all are empty): min-updated on insert
	// (a FIFO's readyAt never decreases, so only an empty queue's new
	// head can lower the bound) and recomputed from the true heads on
	// every pop. Because the bound is exact, a bound in the future proves
	// no head is ready and the arbiters return at once.
	reqWake  []int64
	respWake []int64
	// minReqWake / minRespWake are the minima of reqWake / respWake as of
	// the last RecomputeMins. The system loop recomputes them after each
	// block of SM ticks and each block of partition ticks, so it reads a
	// whole-crossbar wake bound in O(1).
	minReqWake  int64
	minRespWake int64

	Injected  int64
	Rejected  int64
	Responses int64
}

// New builds a crossbar.
func New(numSM, numPart int, latency int64, capPerQueue int) *Xbar {
	x := &Xbar{
		NumSM: numSM, NumPart: numPart,
		Latency: latency, CapPerQueue: capPerQueue,
		toPart:   make([][]ring, numPart),
		toSM:     make([][]ring, numSM),
		reqBusy:  make([]bitset, numPart),
		respBusy: make([]bitset, numSM),
		rrReq:    make([]int, numPart),
		curSM:    make([]int, numPart),
		pendSM:   make([]int, numPart),
		pendRot:  make([]int, numPart),
		rrResp:   make([]int, numSM),
		reqWake:  make([]int64, numPart),
		respWake: make([]int64, numSM),
	}
	x.minReqWake = never
	x.minRespWake = never
	for i := range x.reqWake {
		x.reqWake[i] = never
	}
	for i := range x.respWake {
		x.respWake[i] = never
	}
	for i := range x.toPart {
		x.toPart[i] = make([]ring, numSM)
		x.reqBusy[i] = newBitset(numSM)
	}
	for i := range x.toSM {
		x.toSM[i] = make([]ring, numPart)
		x.respBusy[i] = newBitset(numPart)
	}
	for i := range x.curSM {
		x.curSM[i] = -1
	}
	return x
}

// Inject offers a request from SM sm toward its partition (req.Channel).
// It returns false when the queue is full.
func (x *Xbar) Inject(sm int, req *memreq.Request, now int64) bool {
	part := req.Channel
	q := &x.toPart[part][sm]
	if q.len() >= x.CapPerQueue {
		x.Rejected++
		return false
	}
	t := now + x.Latency
	q.push(entry{req, t})
	x.reqBusy[part].set(sm)
	x.Injected++
	x.reqWake[part] = min(x.reqWake[part], t)
	return true
}

// PeekPart returns the next request deliverable to partition `part` at tick
// now without removing it; PopPart(part) consumes it. It returns nil when
// nothing is ready. Arbitration is round-robin across SMs (or sticky
// per-SM in NoInterleave mode); each (SM, partition) FIFO preserves
// order. A successful peek must be consumed (or re-peeked) before the
// partition's state changes: PopPart pops whatever the last PeekPart on
// that partition selected.
func (x *Xbar) PeekPart(part int, now int64) *memreq.Request {
	qs := x.toPart[part]
	busy := x.reqBusy[part]
	if x.NoInterleave {
		// Stick with the current SM while it has anything queued.
		cur := x.curSM[part]
		if cur >= 0 && qs[cur].len() > 0 {
			return x.headIfReady(cur, part, now)
		}
		// Otherwise take the first non-empty FIFO in rotation order.
		for k := 0; k <= len(busy); k++ {
			word, base := busy.rotWord(x.rrReq[part], k)
			if word == 0 {
				continue
			}
			sm := base + bits.TrailingZeros64(word)
			x.curSM[part] = sm
			x.rrReq[part] = x.nextSM(sm)
			return x.headIfReady(sm, part, now)
		}
		x.curSM[part] = -1
		return nil
	}
	// reqWake is exact, so a future bound proves no head is ready. The
	// arbitration state is untouched either way (rrReq only moves on a
	// pop).
	if x.reqWake[part] > now {
		return nil
	}
	for k := 0; k <= len(busy); k++ {
		word, base := busy.rotWord(x.rrReq[part], k)
		for word != 0 {
			sm := base + bits.TrailingZeros64(word)
			word &= word - 1
			if qs[sm].front().readyAt > now {
				continue
			}
			x.pendSM[part] = sm
			x.pendRot[part] = x.nextSM(sm)
			return qs[sm].front().req
		}
	}
	return nil // unreachable: the exact bound promised a ready head
}

func (x *Xbar) nextSM(sm int) int {
	if sm++; sm == x.NumSM {
		return 0
	}
	return sm
}

func (x *Xbar) nextPart(part int) int {
	if part++; part == x.NumPart {
		return 0
	}
	return part
}

// headIfReady returns the head of the (sm, part) FIFO when it has
// matured, recording it as the partition's pending pop.
func (x *Xbar) headIfReady(sm, part int, now int64) *memreq.Request {
	q := &x.toPart[part][sm]
	if q.len() == 0 || q.front().readyAt > now {
		return nil
	}
	x.pendSM[part] = sm
	x.pendRot[part] = -1 // NoInterleave rotates eagerly in PeekPart
	return q.front().req
}

// PopPart consumes the request the last successful PeekPart(part, ·)
// returned, advancing the round-robin arbitration past its SM.
func (x *Xbar) PopPart(part int) {
	sm := x.pendSM[part]
	q := &x.toPart[part][sm]
	q.pop()
	if q.len() == 0 {
		x.reqBusy[part].clear(sm)
	}
	x.recomputeReqWake(part)
	if rot := x.pendRot[part]; rot >= 0 {
		x.rrReq[part] = rot
	}
}

// recomputeReqWake restores the exact per-partition request-wake bound
// from the heads of the non-empty queues.
func (x *Xbar) recomputeReqWake(part int) {
	w := never
	qs := x.toPart[part]
	for wi, word := range x.reqBusy[part] {
		for word != 0 {
			sm := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			w = min(w, qs[sm].front().readyAt)
		}
	}
	x.reqWake[part] = w
}

func (x *Xbar) recomputeRespWake(sm int) {
	w := never
	qs := x.toSM[sm]
	for wi, word := range x.respBusy[sm] {
		for word != 0 {
			part := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			w = min(w, qs[part].front().readyAt)
		}
	}
	x.respWake[sm] = w
}

// RecomputeMins restores the whole-crossbar minima from the per-index
// wake bounds, which push and pop keep current. Call it after any
// sequence of Inject/PopResponse/PeekPart/PopPart/Respond calls and
// before reading MinReqWake or MinRespWake.
func (x *Xbar) RecomputeMins() {
	x.minReqWake = never
	for _, v := range x.reqWake {
		x.minReqWake = min(x.minReqWake, v)
	}
	x.minRespWake = never
	for _, v := range x.respWake {
		x.minRespWake = min(x.minRespWake, v)
	}
}

// ReqWake returns the earliest tick at which PeekPart(part, ·) could
// return a request, or never when nothing is queued toward part. In
// NoInterleave mode the partition must be visited every tick while any
// request is queued: PeekPart mutates its sticky-SM arbitration state
// even on not-ready heads.
func (x *Xbar) ReqWake(part int) int64 {
	if x.NoInterleave {
		if !x.reqBusy[part].empty() {
			return 0
		}
		return never
	}
	return x.reqWake[part]
}

// RespWake returns the earliest tick at which PopResponse(sm, ·) returns
// a response, or never when none are queued.
func (x *Xbar) RespWake(sm int) int64 { return x.respWake[sm] }

// MinRespWake returns min over SMs of RespWake as of the last
// RecomputeMins — the earliest tick any SM could receive a response.
func (x *Xbar) MinRespWake() int64 { return x.minRespWake }

// MinReqWake returns min over partitions of ReqWake as of the last
// RecomputeMins — the earliest tick any partition could receive a
// request.
func (x *Xbar) MinReqWake() int64 {
	if x.NoInterleave {
		for _, b := range x.reqBusy {
			if !b.empty() {
				return 0
			}
		}
		return never
	}
	return x.minReqWake
}

// Respond sends a response from partition part back to the request's SM.
// The response path is modeled with latency but without back-pressure (the
// SM drains one response per tick, far above the DRAM return rate).
func (x *Xbar) Respond(part int, req *memreq.Request, now int64) {
	sm := int(req.Group.SM)
	if !req.Group.Valid() {
		sm = 0
	}
	x.RespondTo(part, sm, req, now)
}

// RespondTo sends a response to an explicit SM (for ungrouped traffic).
func (x *Xbar) RespondTo(part, sm int, req *memreq.Request, now int64) {
	t := now + x.Latency
	x.toSM[sm][part].push(entry{req, t})
	x.respBusy[sm].set(part)
	x.Responses++
	x.respWake[sm] = min(x.respWake[sm], t)
}

// PopResponse returns the next response for SM sm at tick now, or nil.
// Partitions are served round-robin, starting after the last one served.
func (x *Xbar) PopResponse(sm int, now int64) *memreq.Request {
	// respWake is exact, so a future bound proves no head is ready.
	if x.respWake[sm] > now {
		return nil
	}
	qs := x.toSM[sm]
	busy := x.respBusy[sm]
	for k := 0; k <= len(busy); k++ {
		word, base := busy.rotWord(x.rrResp[sm], k)
		for word != 0 {
			part := base + bits.TrailingZeros64(word)
			word &= word - 1
			q := &qs[part]
			if q.front().readyAt > now {
				continue
			}
			e := q.pop()
			if q.len() == 0 {
				busy.clear(part)
			}
			x.rrResp[sm] = x.nextPart(part)
			x.recomputeRespWake(sm)
			return e.req
		}
	}
	return nil // unreachable: the exact bound promised a ready head
}

// Empty reports whether the crossbar holds no traffic in either direction.
func (x *Xbar) Empty() bool {
	for _, b := range x.reqBusy {
		if !b.empty() {
			return false
		}
	}
	for _, b := range x.respBusy {
		if !b.empty() {
			return false
		}
	}
	return true
}
