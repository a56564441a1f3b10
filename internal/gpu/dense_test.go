package gpu

import (
	"dramlat/internal/guard"
	"dramlat/internal/guard/chaos"
)

// RunDense runs the tick-every-cycle reference loop: every SM and every
// partition ticks every cycle, and every DRAM channel runs its uncached
// Tick. It is the differential oracle the event-driven engine must match
// byte for byte (see eventdriven_test.go); production code selects only the
// event and sampled engines through Run.
func (s *System) RunDense() (Results, error) {
	for _, p := range s.parts {
		p.ctl.Chan.WakeCache = false
	}
	doneTick := int64(-1)
	// nextSample keeps the per-tick telemetry cost to one compare when
	// sampling is off (it never matches).
	nextSample := int64(-1)
	lastSample := int64(-1)
	if s.Tel != nil && s.Tel.Sampler != nil {
		nextSample = s.Tel.Sampler.Every
	}
	smDone := make([]bool, len(s.sms))
	live := 0
	for i, c := range s.sms {
		if c.Done() {
			smDone[i] = true
		} else {
			live++
		}
	}
	wd := s.newWatchdog()
	f := s.Cfg.Faults
	var stall *guard.StallError
	for s.now = 0; s.now < s.Cfg.MaxTicks; s.now++ {
		now := s.now
		f.CheckPanic(now)
		s.Engine.VisitedTicks++
		s.Engine.SMTicks += int64(len(s.sms))
		s.Engine.PartTicks += int64(len(s.parts))
		for i, c := range s.sms {
			if f.Asleep(chaos.TargetSM, i, now) {
				continue
			}
			c.Tick(now, s.x.PopResponse(i, now))
			if !smDone[i] && c.Done() {
				smDone[i] = true
				live--
			}
		}
		for ch, p := range s.parts {
			if f.Asleep(chaos.TargetPartition, ch, now) {
				continue
			}
			p.Tick(now)
		}
		if now == nextSample {
			s.sample(now)
			lastSample = now
			nextSample = now + s.Tel.Sampler.Every
		}
		if live == 0 {
			doneTick = now
			break
		}
		if now >= wd.next {
			if stall = wd.check(now); stall != nil {
				break
			}
		}
	}
	return s.finish(doneTick, lastSample, stall)
}
