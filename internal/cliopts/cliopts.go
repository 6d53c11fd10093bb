// Package cliopts centralizes the engine-tuning option cluster that
// every frontend exposes — cmd/concolic, cmd/evaltable, cmd/congolic,
// and concolicd's job API. One Register call defines the flags with one
// set of help texts, one Check enforces the cross-field rules (fuzz
// needs the coverage strategy, cover-goal range), and one Resolve turns
// the raw values into engine-ready capabilities.
// Before this package each frontend re-implemented the cluster by hand
// and the error dialects had started to drift.
package cliopts

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Options is the raw option cluster as read from flags or a job request.
// String fields keep their wire form; Resolve validates and converts.
type Options struct {
	Workers   int
	Strategy  string // core.SearchStrategyNames ("" = profile default)
	Fuzz      bool
	CoverGoal float64
}

// Register defines the shared flag cluster on fs and returns the
// Options the flags write into. Callers add their command-specific
// flags (e.g. -tool, -timeout, -json) beside it.
func Register(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.IntVar(&o.Workers, "workers", 0,
		"concurrent exploration rounds (0 = all CPUs, 1 = sequential)")
	fs.StringVar(&o.Strategy, "strategy", "",
		"frontier search order: "+strings.Join(core.SearchStrategyNames(), ", ")+
			" (coverage scores candidates by uncovered flip targets; "+
			"empty keeps the profile default)")
	fs.BoolVar(&o.Fuzz, "fuzz", false,
		"run mutation-fuzzing breed rounds between concolic generations "+
			"(requires -strategy coverage; promotes new-coverage mutants as seeds)")
	fs.Float64Var(&o.CoverGoal, "cover-goal", 0,
		"stop early once this fraction (0,1] of static basic blocks is covered "+
			"(0 = explore to the profile budget)")
	return o
}

// Dialect renders a canonical option name ("cover-goal",
// "strategy=coverage") into a consumer's spelling. Errors built through
// a dialect read naturally both on a terminal and in an HTTP 400 body.
type Dialect func(canonical string) string

// FlagDialect prefixes "-" — the CLI spelling.
func FlagDialect(n string) string { return "-" + n }

// WireDialect uses the job API's JSON field names.
func WireDialect(n string) string { return strings.ReplaceAll(n, "-", "_") }

// Check enforces the cross-field rules shared by every frontend. Name
// parses are checked first so an unknown search strategy surfaces as the
// uniform suggestion error rather than a confusing combination error.
func Check(o Options, d Dialect) error {
	if o.Workers < 0 {
		return fmt.Errorf("%s must be non-negative", d("workers"))
	}
	strat, err := core.ParseSearchStrategy(o.Strategy)
	if err != nil {
		return err
	}
	if o.Fuzz && (o.Strategy == "" || strat != core.SearchCoverage) {
		return fmt.Errorf("%s requires %s", d("fuzz"), d("strategy=coverage"))
	}
	if o.CoverGoal < 0 || o.CoverGoal > 1 {
		return fmt.Errorf("%s must be in (0, 1] (0 disables the goal)", d("cover-goal"))
	}
	return nil
}

// Resolved is the validated, engine-ready form of the cluster.
type Resolved struct {
	Workers     int
	Strategy    core.SearchStrategy
	StrategySet bool // explicit -strategy; false keeps the profile default
	Fuzz        bool
	CoverGoal   float64
}

// Resolve checks the cluster and converts it.
func (o Options) Resolve(d Dialect) (*Resolved, error) {
	if err := Check(o, d); err != nil {
		return nil, err
	}
	r := &Resolved{Workers: o.Workers, Fuzz: o.Fuzz, CoverGoal: o.CoverGoal}
	if o.Strategy != "" {
		r.Strategy, _ = core.ParseSearchStrategy(o.Strategy)
		r.StrategySet = true
	}
	return r, nil
}

// Apply overlays the resolved cluster onto a tool profile's
// capabilities. Unset fields (no explicit strategy, zero cover goal)
// leave the profile's defaults intact.
func (r *Resolved) Apply(caps *core.Capabilities) {
	caps.Workers = r.Workers
	if r.StrategySet {
		caps.Search = r.Strategy
	}
	if r.Fuzz {
		caps.Fuzz = true
	}
	if r.CoverGoal != 0 {
		caps.CoverGoal = r.CoverGoal
	}
}
