// Package solver is the constraint-solving front end of the engine: it
// routes pure bitvector systems to the bit-blasting SAT backend and
// float-bearing systems to a stochastic local search, under explicit
// budgets whose exhaustion surfaces as the paper's "E" (abnormal exit)
// outcome.
//
// The local-search FP solver substitutes for Z3's floating-point theory:
// it proposes assignments, evaluates the constraint system concretely
// through sym.Eval (which implements exact IEEE-754 semantics), and hill
// climbs on a distance objective. This is the same observable behaviour —
// solve small FP systems, fail on hard ones — with a documented different
// mechanism (DESIGN.md, substitution D4).
package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/bitblast"
	"repro/internal/sat"
	"repro/internal/sym"
)

// Status is a solver verdict.
type Status int

// Verdicts.
const (
	StatusSat Status = iota + 1
	StatusUnsat
	StatusUnknown // budget exhausted
	StatusFloatUnsupported
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusUnknown:
		return "unknown"
	case StatusFloatUnsupported:
		return "float-unsupported"
	}
	return "invalid"
}

// FPMode selects how float constraints are handled.
type FPMode int

// FP handling modes.
const (
	FPNone   FPMode = iota + 1 // reject (models tools without FP theory)
	FPSearch                   // stochastic local search
)

// Options configures a Solve call.
type Options struct {
	// MaxConflicts bounds the SAT search (0 = default).
	MaxConflicts int64
	// FP selects float handling (zero value = FPNone).
	FP FPMode
	// FPIterations bounds the local search (0 = default).
	FPIterations int
	// Timeout bounds the wall-clock time of one query (0 = none); it
	// models the per-task analysis timeout of the paper's experiments.
	Timeout time.Duration
	// Seed provides starting values for local search and model completion;
	// typically the current concrete input.
	Seed map[string]uint64
	// RandSeed makes the local search deterministic.
	RandSeed int64
}

// Default budgets.
const (
	DefaultMaxConflicts = 200_000
	DefaultFPIterations = 60_000
)

// Result is a solver outcome.
type Result struct {
	Status Status
	// Model maps variable names to values when Status is StatusSat.
	Model map[string]uint64
	// Conflicts and Props report SAT effort (bitvector path only).
	Conflicts int64
}

// ErrNoConstraints is returned by Solve when given an empty system.
var ErrNoConstraints = errors.New("solver: empty constraint system")

// Solve is SolveContext with a background context, kept for callers
// with no cancellation to propagate.
func Solve(constraints []sym.Expr, opts Options) (Result, error) {
	return SolveContext(context.Background(), constraints, opts)
}

// SolveContext decides the conjunction of the given width-1
// constraints. It is the canonical one-shot entry point (Session is
// the stateful counterpart). A cancelled or deadline-expired context
// makes the query give up with StatusUnknown mid-search instead of
// running to its conflict or wall-clock budget; the context deadline
// tightens (never loosens) opts.Timeout.
func SolveContext(ctx context.Context, constraints []sym.Expr, opts Options) (Result, error) {
	if len(constraints) == 0 {
		return Result{}, ErrNoConstraints
	}
	applyDefaults(&opts)

	// Constant-false shortcut.
	if hasConstFalse(constraints) {
		return Result{Status: StatusUnsat}, nil
	}

	if sym.HasFloat(constraints...) {
		return solveFloat(ctx, constraints, opts), nil
	}

	st, model, conflicts, _, err := solveBV(ctx, constraints, opts)
	if err != nil {
		return Result{}, err
	}
	if st == StatusSat {
		completeModel(model, constraints, opts.Seed)
		minimizeModel(model, constraints, opts.Seed)
		return Result{Status: StatusSat, Model: model, Conflicts: conflicts}, nil
	}
	return Result{Status: st, Conflicts: conflicts}, nil
}

func applyDefaults(opts *Options) {
	if opts.MaxConflicts <= 0 {
		opts.MaxConflicts = DefaultMaxConflicts
	}
	if opts.FPIterations <= 0 {
		opts.FPIterations = DefaultFPIterations
	}
	if opts.FP == 0 {
		opts.FP = FPNone
	}
}

func hasConstFalse(constraints []sym.Expr) bool {
	for _, c := range constraints {
		if k, ok := c.(*sym.Const); ok && k.V == 0 {
			return true
		}
	}
	return false
}

// solveFloat handles a float-bearing system according to the FP mode.
func solveFloat(ctx context.Context, constraints []sym.Expr, opts Options) Result {
	if opts.FP == FPNone {
		// Even without a floating-point theory, "v == c" (or an
		// ordering) against an otherwise-unconstrained variable is
		// trivially assignable — which is exactly how simulated
		// external-call summaries produce the paper's false positives.
		if model, ok := trivialFPAssign(constraints, opts.Seed); ok {
			return Result{Status: StatusSat, Model: model}
		}
		return Result{Status: StatusFloatUnsupported}
	}
	return fpSearch(ctx, constraints, opts)
}

// satPool holds SAT solvers between fresh queries. A solver goes back
// Reset, keeping the buffers earlier queries grew, so a query allocates
// only where it outgrows them. Reset makes the reuse invisible to the
// search (DESIGN.md §9).
var satPool = sync.Pool{New: func() any { return sat.New() }}

// solveBV decides a float-free system by bit-blasting. The returned model
// is raw — straight from the SAT assignment, before seed completion and
// minimization — so its value depends only on the constraint slice and
// the conflict budget, never on the caller's seed. timedOut reports that
// an Unknown verdict was (or may have been) caused by the wall-clock
// deadline or by context cancellation rather than the deterministic
// conflict budget.
func solveBV(ctx context.Context, constraints []sym.Expr, opts Options) (st Status, model map[string]uint64, conflicts int64, timedOut bool, err error) {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	expired := func() bool {
		return ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline))
	}
	s := satPool.Get().(*sat.Solver)
	defer func() {
		s.Reset()
		satPool.Put(s)
	}()
	enc := bitblast.New(s)
	for _, c := range constraints {
		if expired() {
			return StatusUnknown, nil, 0, true, nil
		}
		if err := enc.Assert(c); err != nil {
			if errors.Is(err, bitblast.ErrFloat) {
				return StatusFloatUnsupported, nil, 0, false, nil
			}
			if errors.Is(err, bitblast.ErrBudget) {
				return StatusUnknown, nil, 0, false, nil
			}
			return 0, nil, 0, false, err
		}
	}
	res := s.SolveInterruptible(opts.MaxConflicts, deadline, func() bool { return ctx.Err() != nil })
	conflicts = s.Stats().Conflicts
	switch res {
	case sat.Sat:
		return StatusSat, enc.Model(), conflicts, false, nil
	case sat.Unsat:
		return StatusUnsat, nil, conflicts, false, nil
	default:
		return StatusUnknown, nil, conflicts, expired(), nil
	}
}

// minimizeModel greedily resets variables to their seed values where the
// constraint system stays satisfied, removing solver-chosen junk from
// generated inputs (deterministic: variables in sorted order).
func minimizeModel(model map[string]uint64, constraints []sym.Expr, seed map[string]uint64) {
	if len(seed) == 0 {
		return
	}
	satisfied := func() bool {
		for _, c := range constraints {
			if sym.Eval(c, model) != 1 {
				return false
			}
		}
		return true
	}
	if !satisfied() {
		return // model completion can violate unrelated seeds; keep as is
	}
	for _, name := range sym.Vars(constraints...) {
		sv, ok := seed[name]
		if !ok || model[name] == sv {
			continue
		}
		old := model[name]
		model[name] = sv
		if !satisfied() {
			model[name] = old
		}
	}
}

// completeModel fills variables missing from the model with seed values.
func completeModel(model map[string]uint64, constraints []sym.Expr, seed map[string]uint64) {
	for name := range sym.VarWidths(constraints...) {
		if _, ok := model[name]; !ok {
			model[name] = seed[name]
		}
	}
}

// trivialFPAssign satisfies float comparisons whose one side is a bare
// variable by direct bit assignment, starting from the seed environment.
// It succeeds only when the whole system ends up satisfied.
func trivialFPAssign(constraints []sym.Expr, seed map[string]uint64) (map[string]uint64, bool) {
	env := cloneEnv(seed)
	if env == nil {
		env = make(map[string]uint64)
	}
	for pass := 0; pass < 4; pass++ {
		done := true
		for _, c := range constraints {
			if sym.Eval(c, env) == 1 {
				continue
			}
			done = false
			target, ok := stripNot(c)
			if !ok {
				return nil, false
			}
			b, ok := target.(*sym.Bin)
			if !ok || !b.Op.IsFloat() {
				return nil, false
			}
			v, other, leftVar := bareVarSide(b)
			if v == nil {
				return nil, false
			}
			val := sym.Eval(other, env)
			f := math.Float64frombits(val)
			switch b.Op {
			case sym.OpFEq:
				env[v.Name] = val
			case sym.OpFLt, sym.OpFLe:
				// Place the variable strictly on the required side.
				if leftVar {
					env[v.Name] = math.Float64bits(f - 1)
				} else {
					env[v.Name] = math.Float64bits(f + 1)
				}
			default:
				return nil, false
			}
		}
		if done {
			return env, true
		}
	}
	return nil, false
}

// stripNot unwraps a BoolNot; a negated comparison is not directly
// assignable here (the caller's negation already rewrote integer ops,
// float ones stay wrapped), so only bare comparisons pass.
func stripNot(c sym.Expr) (sym.Expr, bool) {
	if u, ok := c.(*sym.Un); ok && u.Op == sym.OpBoolNot {
		return nil, false
	}
	return c, true
}

// bareVarSide returns the bare variable operand and the other side.
func bareVarSide(b *sym.Bin) (v *sym.Var, other sym.Expr, leftVar bool) {
	if x, ok := b.A.(*sym.Var); ok {
		return x, b.B, true
	}
	if x, ok := b.B.(*sym.Var); ok {
		return x, b.A, false
	}
	return nil, nil, false
}

// ── stochastic FP solver ─────────────────────────────────────────────

// fpSearch hill-climbs over the constraint variables, evaluating the
// system concretely. Moves include random byte mutations, digit-targeted
// mutations (inputs are usually numeric strings), and wholesale numeric
// rendering of log-uniform floats into byte-variable groups.
func fpSearch(ctx context.Context, constraints []sym.Expr, opts Options) Result {
	rng := rand.New(rand.NewSource(opts.RandSeed + 1))
	widths := sym.VarWidths(constraints...)
	names := sym.Vars(constraints...)
	if len(names) == 0 {
		// No variables: just evaluate.
		if penaltyAll(constraints, nil) == 0 {
			return Result{Status: StatusSat, Model: map[string]uint64{}}
		}
		return Result{Status: StatusUnsat}
	}

	env := make(map[string]uint64, len(names))
	for _, n := range names {
		env[n] = opts.Seed[n] & maskFor(widths[n])
	}
	best := penaltyAll(constraints, env)
	if best == 0 {
		return Result{Status: StatusSat, Model: cloneEnv(env)}
	}

	// Group byte variables by prefix for numeric-rendering moves:
	// "argv1[3]" -> group "argv1[", index 3.
	groups := byteGroups(names, widths)

	for it := 0; it < opts.FPIterations; it++ {
		if it&1023 == 0 && ctx.Err() != nil {
			return Result{Status: StatusUnknown}
		}
		cand := cloneEnv(env)
		switch rng.Intn(10) {
		case 0, 1, 2:
			// Random single-variable mutation.
			n := names[rng.Intn(len(names))]
			cand[n] = mutate(rng, cand[n], widths[n])
		case 3, 4, 5:
			// Digit-targeted mutation for byte variables.
			n := names[rng.Intn(len(names))]
			if widths[n] == 8 {
				cand[n] = uint64('0' + rng.Intn(10))
			} else {
				cand[n] = mutate(rng, cand[n], widths[n])
			}
		case 6, 7:
			// Render a log-uniform float into a byte group.
			if len(groups) > 0 {
				g := groups[rng.Intn(len(groups))]
				renderNumeric(rng, cand, g)
			}
		case 8:
			// Small numeric nudge on a 64-bit variable.
			n := names[rng.Intn(len(names))]
			delta := uint64(rng.Intn(5)) - 2
			cand[n] = (cand[n] + delta) & maskFor(widths[n])
		default:
			// Restart a random subset.
			for _, n := range names {
				if rng.Intn(3) == 0 {
					cand[n] = mutate(rng, cand[n], widths[n])
				}
			}
		}
		p := penaltyAll(constraints, cand)
		if p <= best {
			env = cand
			best = p
			if best == 0 {
				minimizeModel(env, constraints, opts.Seed)
				return Result{Status: StatusSat, Model: env}
			}
		}
	}
	return Result{Status: StatusUnknown}
}

func maskFor(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

func cloneEnv(env map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func mutate(rng *rand.Rand, v uint64, w int) uint64 {
	switch rng.Intn(4) {
	case 0:
		return rng.Uint64() & maskFor(w)
	case 1:
		return (v ^ (1 << uint(rng.Intn(w)))) & maskFor(w)
	case 2:
		return (v + 1) & maskFor(w)
	default:
		return (v - 1) & maskFor(w)
	}
}

// byteGroup is a run of 8-bit variables sharing a name prefix, e.g. the
// bytes of argv1.
type byteGroup struct {
	prefix string
	names  []string // index i -> full variable name, dense from 0
}

func byteGroups(names []string, widths map[string]int) []byteGroup {
	byPrefix := make(map[string]map[int]string)
	for _, n := range names {
		if widths[n] != 8 {
			continue
		}
		open := -1
		for i := 0; i < len(n); i++ {
			if n[i] == '[' {
				open = i
				break
			}
		}
		if open < 0 || n[len(n)-1] != ']' {
			continue
		}
		idx, err := strconv.Atoi(n[open+1 : len(n)-1])
		if err != nil {
			continue
		}
		p := n[:open+1]
		if byPrefix[p] == nil {
			byPrefix[p] = make(map[int]string)
		}
		byPrefix[p][idx] = n
	}
	var out []byteGroup
	for p, m := range byPrefix {
		g := byteGroup{prefix: p}
		for i := 0; ; i++ {
			n, ok := m[i]
			if !ok {
				break
			}
			g.names = append(g.names, n)
		}
		if len(g.names) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// renderNumeric writes the decimal rendering of a log-uniform float into
// the group's byte variables (NUL padded). This is the move that cracks
// "1024 + x == 1024 && x > 0"-style constraints: it proposes numbers
// spanning forty orders of magnitude.
func renderNumeric(rng *rand.Rand, env map[string]uint64, g byteGroup) {
	exp := rng.Float64()*40 - 20 // 1e-20 .. 1e+20
	v := math.Pow(10, exp)
	if rng.Intn(4) == 0 {
		v = -v
	}
	if rng.Intn(4) == 0 {
		v = math.Trunc(v)
	}
	s := strconv.FormatFloat(v, 'f', -1, 64)
	for i, name := range g.names {
		if i < len(s) {
			env[name] = uint64(s[i])
		} else {
			env[name] = 0
		}
	}
}

// penaltyAll sums the distance of every constraint from satisfaction;
// zero means the assignment is a model.
func penaltyAll(constraints []sym.Expr, env map[string]uint64) float64 {
	var total float64
	for _, c := range constraints {
		total += penalty(c, env)
	}
	return total
}

// penalty returns 0 when the width-1 constraint holds, and a positive
// distance measure otherwise, shaped so hill climbing has gradients on
// comparisons.
func penalty(c sym.Expr, env map[string]uint64) float64 {
	if sym.Eval(c, env) == 1 {
		return 0
	}
	if b, ok := c.(*sym.Bin); ok && b.Op.IsCompare() {
		av := sym.Eval(b.A, env)
		bv := sym.Eval(b.B, env)
		switch b.Op {
		case sym.OpFEq, sym.OpFLt, sym.OpFLe:
			fa, fb := math.Float64frombits(av), math.Float64frombits(bv)
			if math.IsNaN(fa) || math.IsNaN(fb) {
				return 1e6
			}
			return 1 + math.Min(1e6, math.Abs(fa-fb))
		default:
			d := float64(av) - float64(bv)
			return 1 + math.Min(1e6, math.Abs(d))
		}
	}
	return 1000 // unsatisfied non-comparison: flat penalty
}
