package simwindow

import (
	"magus/internal/netmodel"
	"magus/internal/runbook"
)

// NewFullScan is New with the meter on its full-scan reference path:
// every tick's utility, floor, handover and below-floor values come
// from whole-grid scans and loads are rebuilt wholesale after each load
// change. The handover series is bit-identical to the incremental
// engine's; utility, floor, below-floor and load series agree within
// floating-point association (≤1e-9 relative).
func NewFullScan(base *netmodel.State, rb *runbook.Runbook, cfg Config) (*Simulator, error) {
	return newSimulator(base, rb, cfg, true)
}

// SessionStates returns a session's live and C_after reference states.
func SessionStates(s *Session) (live, afterRef *netmodel.State) { return s.live, s.afterRef }

// AdvanceBelowProbe is Session.Advance with a probe on the meter's
// below-floor rebuild. force marks the below-floor sum repaired before
// the tick's resync check, so a due resync rebuilds it; skipped reports
// that a resync ran this tick and skipped the rebuild.
func AdvanceBelowProbe(s *Session, force bool) (smp Sample, skipped bool) {
	t := s.tick
	s.evolve(nil)
	smp = s.measure(t)
	if force {
		s.mt.belowRepaired = true
	}
	skipped = !s.mt.belowRepaired && s.mt.sinceSync+1 >= meterResyncTicks
	s.mt.tickDone()
	return smp, skipped
}
