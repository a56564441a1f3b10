// Package dram implements a cycle-accurate model of one GDDR5 memory
// channel: 16 banks organized into 4 bank groups, per-bank in-order command
// queues, and a command scheduler that interleaves bank groups first and
// banks second (the multi-level round-robin of Section II-C), while
// enforcing every timing constraint of the Table II set.
//
// The channel is policy-free: a memory controller (internal/memctrl,
// internal/core) decides which transaction to enqueue and when; the channel
// guarantees that the resulting DRAM command stream is legal and reports
// when each transaction's data transfer finishes.
//
// One transaction moves one 128-byte request; because the 64-bit GDDR5
// channel transfers 64 bytes per burst (BL8, tBURST = 2 tCK), a transaction
// issues two column commands. Keeping the 64B burst as the unit of data
// transfer keeps the MERB arithmetic of Section IV-D identical to the
// paper's.
//
// Per-bank state is data-oriented: the row/timing/score fields the
// scheduler scan and the timing checks read every cycle live in flat
// per-channel arrays indexed by bank (see the "Data-oriented core"
// section of DESIGN.md), so the one-pass round-robin scan in Tick walks
// contiguous memory instead of chasing a struct per bank.
//
// Refresh is off by default (the paper does not discuss it and it affects
// all schedulers identically) but can be enabled with SetRefresh: an
// all-bank refresh model that drains the command queues, closes every bank
// and blocks the channel for tRFC every tREFI.
package dram

import (
	"dramlat/internal/gddr5"
	"dramlat/internal/guard"
	"dramlat/internal/memreq"
)

// Never is the wakeup-contract sentinel: a NextWakeup result of Never
// means "no state change can happen without new external input". Any
// finite wakeup may be early (the caller just re-checks); it must never
// be later than the component's first actual state change.
const Never int64 = 1 << 62

// CmdType enumerates DRAM commands.
type CmdType uint8

const (
	// CmdACT opens a row in a bank.
	CmdACT CmdType = iota
	// CmdPRE closes the open row of a bank.
	CmdPRE
	// CmdRD reads one 64B burst from the open row.
	CmdRD
	// CmdWR writes one 64B burst to the open row.
	CmdWR
)

func (c CmdType) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	}
	return "?"
}

// Command is one entry of a per-bank command queue.
type Command struct {
	Type CmdType
	Bank int
	Row  int          // target row (ACT) or open-row check (RD/WR)
	Txn  *Transaction // owning transaction for column commands
	Last bool         // final column command of the transaction
}

// Transaction is a scheduled request: the unit the transaction scheduler
// hands to the channel. Hit records whether the transaction was projected
// (and, because per-bank queues execute in order, actually is) a row hit.
//
// Transactions are recycled: once one completes, the channel reclaims it
// at the next Tick on a later cycle. Callers may read a completed
// transaction until the end of the tick its last burst finished on
// (OnComplete and the command returned by that Tick), not across ticks.
type Transaction struct {
	Req      *memreq.Request
	Hit      bool
	CASTotal int
	casDone  int
	DoneAt   int64 // tick at which the last burst finishes
}

// Stats aggregates channel activity counters.
type Stats struct {
	Refreshes int64
	ACTs      int64
	PREs      int64
	RDBursts  int64
	WRBursts  int64
	HitTxns   int64
	MissTxns  int64
	ReadTxns  int64
	WriteTxns int64
	BusyTicks int64 // data-bus busy time (bursts * tBURST)
}

// Channel is one 64-bit GDDR5 channel with a single rank of 16 banks.
type Channel struct {
	T        gddr5.Timing
	NumBanks int
	Groups   int // bank groups (4)
	QueueCap int // max queued transactions per bank

	// Per-bank state, struct-of-arrays, indexed by bank. openRow/actOK/
	// preOK/casOK are the architectural row and earliest-legal times the
	// per-tick legality checks read; schedRow/queuedTxns/queuedScore/
	// hitsSinceAct are the shadow scheduling state (the view once all
	// queued commands execute) the transaction schedulers read.
	openRow      []int32 // -1 when closed (architectural)
	actOK        []int64
	preOK        []int64
	casOK        []int64
	schedRow     []int32 // row open after queued cmds execute; -1 closed
	queuedTxns   []int32
	queuedScore  []int32 // WG score units (1 per projected hit, 3 per miss)
	hitsSinceAct []int32 // 64B bursts scheduled since the last scheduled ACT
	// schedVer increments whenever any scheduler-visible bank state above
	// (schedRow, queuedScore, hitsSinceAct) changes: on Enqueue, on a
	// transaction's last burst retiring, and on refresh. Warp-group score
	// caches (internal/core) compare snapshots of it to decide whether a
	// cached score is still valid.
	schedVer []uint32

	// queues are the per-bank in-order command queues, head-indexed so a
	// pop never re-slices capacity away.
	queues [][]Command
	qHead  []int32

	// Rank-level timing state.
	lastACT   int64    // for tRRD
	fawWindow [4]int64 // ticks of the last four ACTs (ring)
	fawIdx    int

	lastCASGroup []int64 // last column command per bank group (tCCDL)
	lastCASAny   int64   // last column command on the channel (tCCDS)
	lastRDCmd    int64   // last read column command (tRTW)
	wrDataEnd    int64   // end of last write data (tWTR)
	busFreeAt    int64   // data bus availability

	rrBank  int // round-robin position within group
	rrGroup int // round-robin position across groups

	// busOnly holds Zero-Latency-Divergence trailing requests: they are
	// serviced purely as data-bus transfers (Fig 4's ideal model keeps
	// bus bandwidth and contention but abstracts bank conflicts away).
	busOnly []*Transaction
	boHead  int

	// lastCmd is the storage for the command Tick returns, so issuing a
	// command never allocates; the pointer is valid until the next Tick.
	lastCmd Command

	// txnFree/txnDead recycle Transaction objects. A completing
	// transaction parks on txnDead until a Tick on a later cycle moves it
	// to txnFree — by then every same-tick reader (OnComplete, the
	// tracer reading the returned command's Txn) has run.
	txnFree  []*Transaction
	txnDead  []*Transaction
	lastSeen int64

	// Refresh state (SetRefresh).
	refreshInterval int64
	trfc            int64
	nextRefresh     int64
	refreshDue      bool

	// OnComplete fires when a transaction's final burst finishes
	// transferring. It may be nil.
	OnComplete func(*Transaction, int64)

	// WakeCache lets Tick skip the bank scan outright while now is before
	// cmdWake, a cached lower bound on the next tick any command can
	// issue (recomputed on idle ticks, zeroed by every state mutation).
	// The GPU model always turns it on; the tests' dense reference loop
	// turns it off so its Tick stays the pristine differential oracle.
	// The cache's own contract is covered by TestNextWakeupNeverLate.
	WakeCache bool
	cmdWake   int64

	Stats Stats
}

// NewChannel builds a channel with the given timing and geometry.
func NewChannel(t gddr5.Timing, numBanks, groups, queueCap int) *Channel {
	if numBanks%groups != 0 {
		panic("dram: banks must divide evenly into groups")
	}
	c := &Channel{
		T:            t,
		NumBanks:     numBanks,
		Groups:       groups,
		QueueCap:     queueCap,
		openRow:      make([]int32, numBanks),
		actOK:        make([]int64, numBanks),
		preOK:        make([]int64, numBanks),
		casOK:        make([]int64, numBanks),
		schedRow:     make([]int32, numBanks),
		queuedTxns:   make([]int32, numBanks),
		queuedScore:  make([]int32, numBanks),
		hitsSinceAct: make([]int32, numBanks),
		schedVer:     make([]uint32, numBanks),
		queues:       make([][]Command, numBanks),
		qHead:        make([]int32, numBanks),
		lastCASGroup: make([]int64, groups),
		lastSeen:     -1 << 62,
	}
	const past = -1 << 30
	for i := 0; i < numBanks; i++ {
		c.openRow[i] = -1
		c.schedRow[i] = -1
		c.actOK[i] = past
		c.preOK[i] = past
		c.casOK[i] = past
	}
	c.lastACT = past
	for i := range c.fawWindow {
		c.fawWindow[i] = past
	}
	for i := range c.lastCASGroup {
		c.lastCASGroup[i] = past
	}
	c.lastCASAny = past
	c.lastRDCmd = past
	c.wrDataEnd = past
	c.busFreeAt = past
	return c
}

func (c *Channel) group(bankIdx int) int { return bankIdx / (c.NumBanks / c.Groups) }

// queueLen returns the number of commands queued at bank b.
func (c *Channel) queueLen(b int) int { return len(c.queues[b]) - int(c.qHead[b]) }

// head returns the head command of bank b's queue (caller checked len).
func (c *Channel) head(b int) *Command { return &c.queues[b][c.qHead[b]] }

// popHead removes bank b's head command, resetting the backing array
// once the queue fully drains so its capacity is reused from the front.
func (c *Channel) popHead(b int) {
	q := c.queues[b]
	h := int(c.qHead[b])
	q[h] = Command{}
	h++
	if h == len(q) {
		c.queues[b] = q[:0]
		h = 0
	}
	c.qHead[b] = int32(h)
}

// newTxn returns a zeroed transaction, recycling a retired one when the
// freelist has stock.
func (c *Channel) newTxn(r *memreq.Request) *Transaction {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		*t = Transaction{Req: r}
		return t
	}
	return &Transaction{Req: r}
}

// reclaimTxns moves transactions that completed on an earlier tick to
// the freelist. Same-tick readers (OnComplete, the tracer behind Tick's
// returned command) have all run by the first Tick of a later cycle.
func (c *Channel) reclaimTxns(now int64) {
	if now == c.lastSeen {
		return
	}
	c.lastSeen = now
	if len(c.txnDead) > 0 {
		c.txnFree = append(c.txnFree, c.txnDead...)
		c.txnDead = c.txnDead[:0]
	}
}

// SetRefresh enables all-bank refresh every interval ticks, blocking the
// channel for trfc ticks per refresh. Passing interval 0 disables it.
func (c *Channel) SetRefresh(interval, trfc int64) {
	c.refreshInterval = interval
	c.trfc = trfc
	c.nextRefresh = interval
	c.cmdWake = 0
}

// CanAccept reports whether bank b's command queue has room for another
// transaction. While a refresh is pending the channel drains and accepts
// nothing new.
func (c *Channel) CanAccept(b int) bool {
	if c.refreshDue {
		return false
	}
	return int(c.queuedTxns[b]) < c.QueueCap
}

// maybeRefresh arms and performs all-bank refreshes. It returns true while
// a refresh is blocking the channel this tick.
func (c *Channel) maybeRefresh(now int64) bool {
	if c.refreshInterval <= 0 {
		return false
	}
	if !c.refreshDue && now >= c.nextRefresh {
		c.refreshDue = true
	}
	if !c.refreshDue {
		return false
	}
	// Drain: issue queued commands as usual until every queue is empty.
	for i := 0; i < c.NumBanks; i++ {
		if c.queueLen(i) > 0 {
			return false // keep issuing; acceptance is already blocked
		}
	}
	if len(c.busOnly)-c.boHead > 0 {
		return false
	}
	// Wait until every bank may precharge and the bus is quiet.
	for i := 0; i < c.NumBanks; i++ {
		if c.openRow[i] != -1 && now < c.preOK[i] {
			return true
		}
	}
	if now < c.busFreeAt {
		return true
	}
	// Perform the refresh: close everything, block for tRFC.
	for i := 0; i < c.NumBanks; i++ {
		c.openRow[i] = -1
		c.schedRow[i] = -1
		c.actOK[i] = now + c.trfc
		c.hitsSinceAct[i] = 0
		c.schedVer[i]++
	}
	c.Stats.Refreshes++
	c.refreshDue = false
	c.nextRefresh = now + c.refreshInterval
	return true
}

// SchedRow returns the row that will be open in bank b once all queued
// commands execute, or -1 if the bank will be (or stay) closed.
func (c *Channel) SchedRow(b int) int { return int(c.schedRow[b]) }

// OpenRow returns the row currently open in bank b (-1 precharged),
// for diagnostics.
func (c *Channel) OpenRow(b int) int { return int(c.openRow[b]) }

// QueuedTxns returns the number of transactions queued at bank b.
func (c *Channel) QueuedTxns(b int) int { return int(c.queuedTxns[b]) }

// QueuedScore returns the WG completion-time score (1 per projected row
// hit, 3 per projected row miss; Section IV-B1) of the transactions queued
// at bank b.
func (c *Channel) QueuedScore(b int) int { return int(c.queuedScore[b]) }

// HitsSinceAct returns the number of 64B row-hit bursts scheduled to bank b
// since its last scheduled activate: the MERB counter of Section IV-D.
func (c *Channel) HitsSinceAct(b int) int { return int(c.hitsSinceAct[b]) }

// SchedVersion returns a counter that changes whenever bank b's
// scheduler-visible state (SchedRow, QueuedScore, HitsSinceAct) changes.
// Score caches snapshot it to detect staleness without subscribing to
// individual mutations.
func (c *Channel) SchedVersion(b int) uint32 { return c.schedVer[b] }

// BanksWithQueuedWork counts banks with at least one queued transaction.
func (c *Channel) BanksWithQueuedWork() int {
	n := 0
	for _, q := range c.queuedTxns {
		if q > 0 {
			n++
		}
	}
	return n
}

// ProjectHit reports whether a request to (bank, row) would be a row hit if
// enqueued now.
func (c *Channel) ProjectHit(bankIdx, row int) bool {
	return c.schedRow[bankIdx] == int32(row)
}

// EnqueueBusOnly schedules a request that consumes only data-bus
// bandwidth: two bursts at the earliest bus opening, no bank commands.
func (c *Channel) EnqueueBusOnly(r *memreq.Request) *Transaction {
	txn := c.newTxn(r)
	txn.Hit = true
	txn.CASTotal = 2
	c.busOnly = append(c.busOnly, txn)
	c.cmdWake = 0
	return txn
}

// tickBusOnly issues the oldest bus-only transfer if the data bus is open.
// It mirrors a read's bus occupancy (data at now+tCAS for 2*tBURST).
func (c *Channel) tickBusOnly(now int64) bool {
	if len(c.busOnly)-c.boHead == 0 {
		return false
	}
	start := now + int64(c.T.TCAS)
	if start < c.busFreeAt {
		return false
	}
	txn := c.busOnly[c.boHead]
	c.busOnly[c.boHead] = nil
	c.boHead++
	if c.boHead == len(c.busOnly) {
		c.busOnly = c.busOnly[:0]
		c.boHead = 0
	}
	end := start + 2*int64(c.T.TBURST)
	c.busFreeAt = end
	c.Stats.RDBursts += 2
	c.Stats.BusyTicks += 2 * int64(c.T.TBURST)
	c.Stats.ReadTxns++
	c.Stats.HitTxns++
	txn.casDone = txn.CASTotal
	txn.DoneAt = end
	if c.OnComplete != nil {
		c.OnComplete(txn, end)
	}
	c.txnDead = append(c.txnDead, txn)
	return true
}

// Enqueue schedules a request onto its bank's command queue, generating
// PRE/ACT commands as needed based on the shadow row state. It returns the
// transaction and whether it was a projected row hit. The caller must have
// checked CanAccept.
func (c *Channel) Enqueue(r *memreq.Request) *Transaction {
	b := r.Bank
	if int(c.queuedTxns[b]) >= c.QueueCap {
		// Hot-path invariant: callers must CanAccept first. Kept as a
		// (typed) panic — the model cannot continue — and converted into
		// a *guard.RunError by the façade's recover.
		guard.Invariantf("dram: enqueue to full bank %d", r.Bank)
	}
	c.cmdWake = 0
	casType := CmdRD
	if r.Kind == memreq.Write {
		casType = CmdWR
	}
	const casPerTxn = 2 // 128B request = two 64B bursts
	txn := c.newTxn(r)
	txn.CASTotal = casPerTxn

	c.schedVer[b]++
	if c.schedRow[b] == int32(r.Row) {
		txn.Hit = true
		c.queuedScore[b]++
		c.hitsSinceAct[b] += casPerTxn
		c.Stats.HitTxns++
	} else {
		if c.schedRow[b] != -1 {
			c.queues[b] = append(c.queues[b], Command{Type: CmdPRE, Bank: b})
		}
		c.queues[b] = append(c.queues[b], Command{Type: CmdACT, Bank: b, Row: r.Row})
		c.schedRow[b] = int32(r.Row)
		c.queuedScore[b] += 3
		c.hitsSinceAct[b] = casPerTxn
		c.Stats.MissTxns++
	}
	for i := 0; i < casPerTxn; i++ {
		c.queues[b] = append(c.queues[b], Command{
			Type: casType, Bank: b, Row: r.Row,
			Txn: txn, Last: i == casPerTxn-1,
		})
	}
	c.queuedTxns[b]++
	if r.Kind == memreq.Write {
		c.Stats.WriteTxns++
	} else {
		c.Stats.ReadTxns++
	}
	return txn
}

// earliestLegal returns the exact first tick at which cmd, the head of
// its bank's queue in bank group g, may issue: the latest of every Table
// II timing term that applies to it. Only heads are ever asked: the
// row-state preconditions (ACT only on a closed bank, CAS only on the
// matching open row, PRE only on an open bank) always hold for them,
// because per-bank queues execute in order and Enqueue generated the
// PRE/ACT prefix from the shadow row state. A head may issue at now
// exactly when earliestLegal <= now; the tests hold it to a term-by-term
// legality check.
func (c *Channel) earliestLegal(cmd *Command, g int) int64 {
	b := cmd.Bank
	switch cmd.Type {
	case CmdACT:
		t := c.actOK[b]
		if v := c.lastACT + int64(c.T.TRRD); v > t {
			t = v
		}
		if v := c.fawWindow[c.fawIdx] + int64(c.T.TFAW); v > t {
			t = v
		}
		return t
	case CmdPRE:
		return c.preOK[b]
	case CmdRD:
		t := c.casOK[b]
		if v := c.lastCASGroup[g] + int64(c.T.TCCDL); v > t {
			t = v
		}
		if v := c.lastCASAny + int64(c.T.TCCDS); v > t {
			t = v
		}
		if v := c.wrDataEnd + int64(c.T.TWTR); v > t {
			t = v
		}
		if v := c.busFreeAt - int64(c.T.TCAS); v > t {
			t = v
		}
		return t
	case CmdWR:
		t := c.casOK[b]
		if v := c.lastCASGroup[g] + int64(c.T.TCCDL); v > t {
			t = v
		}
		if v := c.lastCASAny + int64(c.T.TCCDS); v > t {
			t = v
		}
		if v := c.lastRDCmd + int64(c.T.TRTW); v > t {
			t = v
		}
		if v := c.busFreeAt - int64(c.T.TWL); v > t {
			t = v
		}
		return t
	}
	return Never
}

// NextWakeup returns the earliest tick strictly after now at which Tick
// could change channel state (issue a command, start a bus-only
// transfer, or arm/perform a refresh), assuming nothing new is enqueued
// before then. Never means the channel is quiescent until external
// input. Spurious (early) wakeups are harmless; a late one would break
// the event-driven/dense equivalence.
func (c *Channel) NextWakeup(now int64) int64 {
	if c.WakeCache && c.cmdWake > now {
		// Tick computed this exact answer on an idle scan, and nothing
		// has changed since (every mutation zeroes cmdWake).
		return c.cmdWake
	}
	w := Never
	perGroup := c.NumBanks / c.Groups
	for i := 0; i < c.NumBanks; i++ {
		if c.queueLen(i) == 0 {
			continue
		}
		w = min(w, c.earliestLegal(c.head(i), i/perGroup))
	}
	return c.wakeAfter(now, w)
}

// wakeAfter folds the earliest head issue tick w into the channel-level
// wake terms (refresh, bus-only transfers) and clamps the result
// strictly after now.
func (c *Channel) wakeAfter(now, w int64) int64 {
	if c.refreshDue {
		// Refresh drain/perform progresses on per-tick conditions
		// (preOK, bus quiet, queue drain); step densely through it.
		return now + 1
	}
	if c.refreshInterval > 0 {
		w = min(w, c.nextRefresh) // arming tick mutates refreshDue
	}
	if len(c.busOnly)-c.boHead > 0 {
		w = min(w, c.busFreeAt-int64(c.T.TCAS))
	}
	if w <= now {
		return now + 1
	}
	return w
}

// apply issues cmd at tick now, updating all timing state.
func (c *Channel) apply(cmd *Command, now int64) {
	b := cmd.Bank
	switch cmd.Type {
	case CmdACT:
		c.openRow[b] = int32(cmd.Row)
		c.casOK[b] = now + int64(c.T.TRCD)
		if ras := now + int64(c.T.TRAS); ras > c.preOK[b] {
			c.preOK[b] = ras
		}
		c.actOK[b] = now + int64(c.T.TRC)
		c.lastACT = now
		c.fawWindow[c.fawIdx] = now
		c.fawIdx = (c.fawIdx + 1) % len(c.fawWindow)
		c.Stats.ACTs++
	case CmdPRE:
		c.openRow[b] = -1
		if ok := now + int64(c.T.TRP); ok > c.actOK[b] {
			c.actOK[b] = ok
		}
		c.Stats.PREs++
	case CmdRD:
		if p := now + int64(c.T.TRTP); p > c.preOK[b] {
			c.preOK[b] = p
		}
		g := c.group(b)
		c.lastCASGroup[g] = now
		c.lastCASAny = now
		c.lastRDCmd = now
		end := now + int64(c.T.TCAS) + int64(c.T.TBURST)
		c.busFreeAt = end
		c.Stats.RDBursts++
		c.Stats.BusyTicks += int64(c.T.TBURST)
		c.finishBurst(cmd, end)
	case CmdWR:
		dataEnd := now + int64(c.T.TWL) + int64(c.T.TBURST)
		if p := dataEnd + int64(c.T.TWR); p > c.preOK[b] {
			c.preOK[b] = p
		}
		g := c.group(b)
		c.lastCASGroup[g] = now
		c.lastCASAny = now
		c.wrDataEnd = dataEnd
		c.busFreeAt = dataEnd
		c.Stats.WRBursts++
		c.Stats.BusyTicks += int64(c.T.TBURST)
		c.finishBurst(cmd, dataEnd)
	}
}

func (c *Channel) finishBurst(cmd *Command, dataEnd int64) {
	txn := cmd.Txn
	txn.casDone++
	if cmd.Last {
		if txn.casDone != txn.CASTotal {
			panic("dram: last burst issued before siblings")
		}
		txn.DoneAt = dataEnd
		b := cmd.Bank
		c.queuedTxns[b]--
		score := int32(1)
		if !txn.Hit {
			score = 3
		}
		c.queuedScore[b] -= score
		c.schedVer[b]++
		if c.OnComplete != nil {
			c.OnComplete(txn, dataEnd)
		}
		c.txnDead = append(c.txnDead, txn)
	}
}

// Tick attempts to issue one command on the channel's command bus at tick
// now, visiting banks in bank-group-interleaved round-robin order so that
// consecutive column commands prefer different bank groups (lower tCCD).
// It returns the issued command or nil; the returned pointer is only
// valid until the next Tick (the storage is reused).
//
// The scan computes each waiting head's earliest issue tick once: the
// first head whose tick has come issues, and when none has, the minimum
// over all heads is the channel's next wakeup, cached without a second
// pass.
func (c *Channel) Tick(now int64) *Command {
	c.reclaimTxns(now)
	if c.maybeRefresh(now) {
		return nil
	}
	if c.WakeCache && now < c.cmdWake {
		return nil // provably nothing issuable before cmdWake
	}
	c.tickBusOnly(now)
	perGroup := c.NumBanks / c.Groups
	g, within := c.rrGroup, c.rrBank
	wake := Never
	for j := 0; j < perGroup; j++ {
		for k := 0; k < c.Groups; k++ {
			bi := g*perGroup + within
			if c.queueLen(bi) > 0 {
				cmd := c.head(bi)
				if t := c.earliestLegal(cmd, g); t > now {
					wake = min(wake, t)
				} else {
					c.lastCmd = *cmd
					c.popHead(bi)
					c.apply(&c.lastCmd, now)
					// Advance round-robin past the bank just served.
					if c.rrGroup = g + 1; c.rrGroup == c.Groups {
						c.rrGroup = 0
						if c.rrBank = within + 1; c.rrBank == perGroup {
							c.rrBank = 0
						}
					}
					c.cmdWake = 0 // timing state changed: rescan next tick
					return &c.lastCmd
				}
			}
			if g++; g == c.Groups {
				g = 0
			}
		}
		if within++; within == perGroup {
			within = 0
		}
	}
	if c.WakeCache {
		c.cmdWake = c.wakeAfter(now, wake)
	}
	return nil
}

// Idle reports whether the channel has no queued commands at all.
func (c *Channel) Idle() bool {
	if len(c.busOnly)-c.boHead > 0 {
		return false
	}
	for i := 0; i < c.NumBanks; i++ {
		if c.queueLen(i) > 0 {
			return false
		}
	}
	return true
}

// Utilization returns the fraction of elapsed ticks the data bus spent
// transferring data.
func (c *Channel) Utilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Stats.BusyTicks) / float64(elapsed)
}

// RowHitRate returns the fraction of transactions that were row hits.
func (s Stats) RowHitRate() float64 {
	tot := s.HitTxns + s.MissTxns
	if tot == 0 {
		return 0
	}
	return float64(s.HitTxns) / float64(tot)
}
