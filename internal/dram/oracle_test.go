package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"dramlat/internal/gddr5"
	"dramlat/internal/memreq"
)

// legal reports whether cmd may issue at tick now, checking the row-state
// preconditions and every Table II term one by one. It is the oracle for
// earliestLegal, which Tick uses instead.
func (c *Channel) legal(cmd *Command, now int64) bool {
	b := cmd.Bank
	switch cmd.Type {
	case CmdACT:
		if c.openRow[b] != -1 || now < c.actOK[b] {
			return false
		}
		if now < c.lastACT+int64(c.T.TRRD) {
			return false
		}
		if now < c.fawWindow[c.fawIdx]+int64(c.T.TFAW) {
			return false
		}
		return true
	case CmdPRE:
		return c.openRow[b] != -1 && now >= c.preOK[b]
	case CmdRD:
		if c.openRow[b] != int32(cmd.Row) || now < c.casOK[b] {
			return false
		}
		if now < c.lastCASGroup[c.group(b)]+int64(c.T.TCCDL) {
			return false
		}
		if now < c.lastCASAny+int64(c.T.TCCDS) {
			return false
		}
		if now < c.wrDataEnd+int64(c.T.TWTR) {
			return false
		}
		return now+int64(c.T.TCAS) >= c.busFreeAt
	case CmdWR:
		if c.openRow[b] != int32(cmd.Row) || now < c.casOK[b] {
			return false
		}
		if now < c.lastCASGroup[c.group(b)]+int64(c.T.TCCDL) {
			return false
		}
		if now < c.lastCASAny+int64(c.T.TCCDS) {
			return false
		}
		if now < c.lastRDCmd+int64(c.T.TRTW) {
			return false
		}
		return now+int64(c.T.TWL) >= c.busFreeAt
	}
	return false
}

// refNextWakeup is NextWakeup without the cached answer: a full sweep of
// the queue heads.
func (c *Channel) refNextWakeup(now int64) int64 {
	if c.refreshDue {
		return now + 1
	}
	w := Never
	if c.refreshInterval > 0 && c.nextRefresh < w {
		w = c.nextRefresh
	}
	if len(c.busOnly)-c.boHead > 0 {
		if v := c.busFreeAt - int64(c.T.TCAS); v < w {
			w = v
		}
	}
	for i := 0; i < c.NumBanks; i++ {
		if c.queueLen(i) == 0 {
			continue
		}
		if v := c.earliestLegal(c.head(i), c.group(i)); v < w {
			w = v
		}
	}
	if w <= now {
		return now + 1
	}
	return w
}

// refTick is Tick as a legal()-based scan: the bank visit order is
// computed with modulo arithmetic per bank, each head is tested with
// legal(), and an idle scan sets the wake cache with a second sweep.
func (c *Channel) refTick(now int64) *Command {
	c.reclaimTxns(now)
	if c.maybeRefresh(now) {
		return nil
	}
	if c.WakeCache && now < c.cmdWake {
		return nil
	}
	c.tickBusOnly(now)
	perGroup := c.NumBanks / c.Groups
	for i := 0; i < c.NumBanks; i++ {
		g := (c.rrGroup + i%c.Groups) % c.Groups
		within := (c.rrBank + i/c.Groups) % perGroup
		bi := g*perGroup + within
		if c.queueLen(bi) == 0 {
			continue
		}
		cmd := c.head(bi)
		if !c.legal(cmd, now) {
			continue
		}
		c.lastCmd = *cmd
		c.popHead(bi)
		c.apply(&c.lastCmd, now)
		c.rrGroup = (g + 1) % c.Groups
		if g == c.Groups-1 {
			c.rrBank = (within + 1) % perGroup
		}
		c.cmdWake = 0
		return &c.lastCmd
	}
	if c.WakeCache {
		c.cmdWake = c.refNextWakeup(now)
	}
	return nil
}

// TestEarliestLegalMatchesLegal checks, for every queue head at every
// tick of random read/write/bus-only streams (with and without refresh),
// that a head may issue by legal() exactly when its earliestLegal tick
// has come.
func TestEarliestLegalMatchesLegal(t *testing.T) {
	for iter := 0; iter < 12; iter++ {
		rng := rand.New(rand.NewSource(int64(iter) + 100))
		c := NewChannel(gddr5.Default(), 16, 4, 4)
		c.WakeCache = iter%2 == 0
		if iter%3 == 0 {
			c.SetRefresh(2000, 160)
		}
		var id uint64
		for now := int64(0); now < 20_000; now++ {
			if rng.Intn(5) == 0 {
				if bank := rng.Intn(c.NumBanks); c.CanAccept(bank) {
					id++
					kind := memreq.Read
					if rng.Intn(4) == 0 {
						kind = memreq.Write
					}
					c.Enqueue(&memreq.Request{ID: id, Kind: kind, Bank: bank, Row: rng.Intn(6)})
				}
			}
			if iter%4 == 1 && rng.Intn(60) == 0 {
				id++
				c.EnqueueBusOnly(&memreq.Request{ID: id})
			}
			for b := 0; b < c.NumBanks; b++ {
				if c.queueLen(b) == 0 {
					continue
				}
				h := c.head(b)
				if got, want := c.earliestLegal(h, c.group(b)) <= now, c.legal(h, now); got != want {
					t.Fatalf("iter %d tick %d: bank %d head %v: earliestLegal <= now is %v, legal %v",
						iter, now, b, h.Type, got, want)
				}
			}
			c.Tick(now)
		}
	}
}

// TestTickMatchesLegalScan runs the one-pass Tick and the legal()-based
// reference scan on twin channels fed the same random stream and
// requires the same command at every tick, the same statistics and, with
// the wake cache on, the same cached wakeup.
func TestTickMatchesLegalScan(t *testing.T) {
	geoms := []struct{ banks, groups int }{{16, 4}, {16, 2}, {8, 8}, {12, 3}}
	for iter := 0; iter < 16; iter++ {
		geo := geoms[iter%len(geoms)]
		t.Run(fmt.Sprintf("stream%d/%dx%d", iter, geo.banks, geo.groups), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(iter) + 1))
			c := NewChannel(gddr5.Default(), geo.banks, geo.groups, 4)
			ref := NewChannel(gddr5.Default(), geo.banks, geo.groups, 4)
			c.WakeCache = iter%4 != 3
			ref.WakeCache = c.WakeCache
			if iter%3 == 0 {
				c.SetRefresh(2000, 160)
				ref.SetRefresh(2000, 160)
			}
			var done, refDone []int64
			c.OnComplete = func(txn *Transaction, at int64) { done = append(done, int64(txn.Req.ID), at) }
			ref.OnComplete = func(txn *Transaction, at int64) { refDone = append(refDone, int64(txn.Req.ID), at) }
			var id uint64
			for now := int64(0); now < 30_000; now++ {
				if rng.Intn(4) == 0 {
					bank := rng.Intn(c.NumBanks)
					if c.CanAccept(bank) != ref.CanAccept(bank) {
						t.Fatalf("tick %d: CanAccept(%d) diverged", now, bank)
					}
					if c.CanAccept(bank) {
						id++
						kind := memreq.Read
						if rng.Intn(4) == 0 {
							kind = memreq.Write
						}
						r := &memreq.Request{ID: id, Kind: kind, Bank: bank, Row: rng.Intn(6)}
						c.Enqueue(r)
						ref.Enqueue(r)
					}
				}
				if iter%5 == 2 && rng.Intn(60) == 0 {
					id++
					r := &memreq.Request{ID: id}
					c.EnqueueBusOnly(r)
					ref.EnqueueBusOnly(r)
				}
				got, want := c.Tick(now), ref.refTick(now)
				if (got == nil) != (want == nil) {
					t.Fatalf("tick %d: Tick issued %v, reference %v", now, got, want)
				}
				if got != nil && (got.Type != want.Type || got.Bank != want.Bank || got.Row != want.Row || got.Last != want.Last) {
					t.Fatalf("tick %d: Tick issued %+v, reference %+v", now, *got, *want)
				}
				if c.cmdWake != ref.cmdWake || c.rrGroup != ref.rrGroup || c.rrBank != ref.rrBank {
					t.Fatalf("tick %d: (cmdWake, rrGroup, rrBank) = (%d, %d, %d), reference (%d, %d, %d)",
						now, c.cmdWake, c.rrGroup, c.rrBank, ref.cmdWake, ref.rrGroup, ref.rrBank)
				}
				if w, rw := c.NextWakeup(now), ref.refNextWakeup(now); w != rw {
					t.Fatalf("tick %d: NextWakeup = %d, reference %d", now, w, rw)
				}
			}
			if c.Stats != ref.Stats {
				t.Fatalf("stats %+v, reference %+v", c.Stats, ref.Stats)
			}
			if c.Stats.ACTs == 0 || c.Stats.WRBursts == 0 {
				t.Fatalf("stream too thin to compare: %+v", c.Stats)
			}
			if fmt.Sprint(done) != fmt.Sprint(refDone) {
				t.Fatal("completion streams diverged")
			}
		})
	}
}
