// Package cliopts declares the engine option cluster — workers, search
// strategy, fuzzing and the coverage goal — once, for every frontend:
// cmd/concolic, cmd/congolic, cmd/evaltable, the eval grid and fleet
// runners, and concolicd's job API. Options is the only declaration of
// the four fields; its JSON tags are the job API's wire keys, so
// service.Request, service.View and the fleet client embed it instead
// of repeating them. Register defines the flags with one set of help
// texts, Check enforces the cross-field rules (fuzz needs the coverage
// strategy, cover-goal range) in a CLI or wire dialect, and Apply is the
// one overlay of the cluster onto a tool profile's capabilities.
package cliopts

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/core"
)

// Options is the option cluster as read from flags, a grid run or a job
// request. Strategy keeps its wire name; zero values keep the profile's
// defaults.
type Options struct {
	Workers   int     `json:"workers,omitempty"`
	Strategy  string  `json:"strategy,omitempty"` // core.SearchStrategyNames ("" = profile default)
	Fuzz      bool    `json:"fuzz,omitempty"`
	CoverGoal float64 `json:"cover_goal,omitempty"`
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
func (o Options) Check(d Dialect) error {
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

// Apply overlays the cluster onto a tool profile's capabilities. Zero
// fields (no workers, no strategy name, no fuzz, no cover goal) leave
// the profile's defaults intact; an explicit "generational" still
// overrides a profile that defaults to another strategy. Call Check
// first: an unknown strategy name panics.
func (o Options) Apply(caps *core.Capabilities) {
	if o.Workers > 0 {
		caps.Workers = o.Workers
	}
	if o.Strategy != "" {
		s, err := core.ParseSearchStrategy(o.Strategy)
		if err != nil {
			panic("cliopts: " + err.Error())
		}
		caps.Search = s
	}
	if o.Fuzz {
		caps.Fuzz = true
	}
	if o.CoverGoal > 0 {
		caps.CoverGoal = o.CoverGoal
	}
}
