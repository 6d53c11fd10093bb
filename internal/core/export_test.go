package core

import "repro/internal/cover"

// UncoveredPlanRuns checks the invariant that lets breed and resumed
// rounds merge coverage without their replayed prefix: every run a
// corpus entry or a frontier candidate can resume from — its plan's
// whole recorded trace — is already in the engine's tracker. It returns
// how many plans it checked and how many edges and blocks those traces
// would still add. Merging a covered trace changes nothing, so it folds
// each trace into the tracker and counts the novelty.
func (en *Engine) UncoveredPlanRuns() (plans, uncovered int) {
	check := func(p *replayPlan) {
		if p == nil {
			return
		}
		plans++
		e, b := en.cov.Merge(cover.FromTrace(p.trace, en.leaders))
		uncovered += e + b
	}
	for _, c := range en.corpus {
		check(c.plan)
	}
	for _, c := range en.queue[en.head:] {
		check(c.plan)
	}
	for _, c := range en.view[en.viewHead:] {
		check(c.plan)
	}
	return plans, uncovered
}
