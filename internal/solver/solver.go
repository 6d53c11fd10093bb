// Package solver is the constraint-solving front end of the engine: it
// routes pure bitvector systems to the bit-blasting SAT backend and
// float-bearing systems to a stochastic local search, under explicit
// budgets whose exhaustion surfaces as the paper's "E" (abnormal exit)
// outcome.
//
// The local-search FP solver substitutes for Z3's floating-point theory:
// it compiles the constraint system once (sym.Compile), proposes
// assignments as slot vectors, evaluates the compiled system concretely
// with sym.Eval's exact IEEE-754 semantics, and hill climbs on a
// distance objective. This is the same observable behaviour —
// solve small FP systems, fail on hard ones — with a documented different
// mechanism (DESIGN.md, substitution D4).
package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
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
	// Timeout bounds the wall-clock time of one bitvector query (0 =
	// none); it models the per-task analysis timeout of the paper's
	// experiments. The FP local search does not read it: FPIterations
	// bounds it, and only ctx can stop it early.
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
// constraints. A cancelled or deadline-expired context makes the query
// give up with StatusUnknown mid-search instead of running to its
// conflict or wall-clock budget; the context deadline tightens (never
// loosens) opts.Timeout.
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

	st, model, conflicts, _, err := solveBV(ctx, sat.New(), constraints, opts)
	if err != nil {
		return Result{}, err
	}
	if st == StatusSat {
		completeModel(model, constraints, opts.Seed, nil)
		minimizeModel(model, constraints, opts.Seed, nil)
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

// solveBV decides a float-free system by bit-blasting on s, which must
// be new or Reset; the caller resets it for reuse. The returned model
// is raw — straight from the SAT assignment, before seed completion and
// minimization — so its value depends only on the constraint slice and
// the conflict budget, never on the caller's seed. timedOut reports that
// an Unknown verdict was (or may have been) caused by the wall-clock
// deadline or by context cancellation rather than the deterministic
// conflict budget.
func solveBV(ctx context.Context, s *sat.Solver, constraints []sym.Expr, opts Options) (st Status, model map[string]uint64, conflicts int64, timedOut bool, err error) {
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
// generated inputs (deterministic: variables in sorted order). The
// system holds before each reset, so a reset re-checks only the
// constraints that mention the variable: the others keep their value.
func minimizeModel(model map[string]uint64, constraints []sym.Expr, seed map[string]uint64, lists *varLists) {
	if len(seed) == 0 {
		return
	}
	for _, c := range constraints {
		if sym.Eval(c, model) != 1 {
			return // model completion can violate unrelated seeds; keep as is
		}
	}
	uses := make(map[string][]int) // variable -> constraints mentioning it
	for i, c := range constraints {
		for _, name := range lists.of(c) {
			uses[name] = append(uses[name], i)
		}
	}
	names := make([]string, 0, len(uses))
	for name := range uses {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sv, ok := seed[name]
		if !ok || model[name] == sv {
			continue
		}
		old := model[name]
		model[name] = sv
		for _, i := range uses[name] {
			if sym.Eval(constraints[i], model) != 1 {
				model[name] = old
				break
			}
		}
	}
}

// completeModel fills variables missing from the model with seed values.
func completeModel(model map[string]uint64, constraints []sym.Expr, seed map[string]uint64, lists *varLists) {
	for _, c := range constraints {
		for _, name := range lists.of(c) {
			if _, ok := model[name]; !ok {
				model[name] = seed[name]
			}
		}
	}
}

// varLists memoizes the sorted variable names of each interned
// constraint, so finishing a model reads one list per constraint instead
// of walking the whole system. A Cache keeps one for its lifetime; a nil
// *varLists computes every list afresh.
type varLists struct {
	mu sync.Mutex
	m  map[sym.Expr][]string
}

// of returns the names of the variables in c, sorted.
func (v *varLists) of(c sym.Expr) []string {
	if v == nil || !sym.Interned(c) {
		return sym.Vars(c)
	}
	v.mu.Lock()
	names, ok := v.m[c]
	v.mu.Unlock()
	if ok {
		return names
	}
	names = sym.Vars(c)
	v.mu.Lock()
	if v.m == nil {
		v.m = make(map[sym.Expr][]string)
	}
	v.m[c] = names
	v.mu.Unlock()
	return names
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
//
// The system is compiled once (sym.Compile) and each candidate is a
// slot vector, one value per variable in sorted-name order; the map
// model is built only for a Sat answer.
func fpSearch(ctx context.Context, constraints []sym.Expr, opts Options) Result {
	rng := rand.New(rand.NewSource(opts.RandSeed + 1))
	prog := sym.Compile(constraints)
	names := prog.Vars()
	if len(names) == 0 {
		// No variables: just evaluate.
		if penalty(prog, nil) == 0 {
			return Result{Status: StatusSat, Model: map[string]uint64{}}
		}
		return Result{Status: StatusUnsat}
	}

	widths := make([]int, len(names))
	env := make([]uint64, len(names))
	for i, n := range names {
		widths[i] = prog.Width(i)
		env[i] = opts.Seed[n] & maskFor(widths[i])
	}
	best := penalty(prog, env)
	if best == 0 {
		return Result{Status: StatusSat, Model: slotModel(names, env)}
	}

	// Group byte variables by prefix for numeric-rendering moves:
	// "argv1[3]" -> group "argv1[", index 3.
	byName := make(map[string]int, len(names))
	for i, n := range names {
		byName[n] = widths[i]
	}
	groups := byteGroups(names, byName)

	cand := make([]uint64, len(names))
	var digits []byte
	for it := 0; it < opts.FPIterations; it++ {
		if it&1023 == 0 && ctx.Err() != nil {
			return Result{Status: StatusUnknown}
		}
		copy(cand, env)
		switch rng.Intn(10) {
		case 0, 1, 2:
			// Random single-variable mutation.
			i := rng.Intn(len(names))
			cand[i] = mutate(rng, cand[i], widths[i])
		case 3, 4, 5:
			// Digit-targeted mutation for byte variables.
			i := rng.Intn(len(names))
			if widths[i] == 8 {
				cand[i] = uint64('0' + rng.Intn(10))
			} else {
				cand[i] = mutate(rng, cand[i], widths[i])
			}
		case 6, 7:
			// Render a log-uniform float into a byte group.
			if len(groups) > 0 {
				g := groups[rng.Intn(len(groups))]
				digits = renderNumeric(rng, cand, g.slots, digits)
			}
		case 8:
			// Small numeric nudge on a 64-bit variable.
			i := rng.Intn(len(names))
			delta := uint64(rng.Intn(5)) - 2
			cand[i] = (cand[i] + delta) & maskFor(widths[i])
		default:
			// Restart a random subset.
			for i := range cand {
				if rng.Intn(3) == 0 {
					cand[i] = mutate(rng, cand[i], widths[i])
				}
			}
		}
		p := penalty(prog, cand)
		if p <= best {
			env, cand = cand, env
			best = p
			if best == 0 {
				model := slotModel(names, env)
				minimizeModel(model, constraints, opts.Seed, nil)
				return Result{Status: StatusSat, Model: model}
			}
		}
	}
	return Result{Status: StatusUnknown}
}

// slotModel maps each variable name to its slot value.
func slotModel(names []string, slots []uint64) map[string]uint64 {
	model := make(map[string]uint64, len(names))
	for i, n := range names {
		model[n] = slots[i]
	}
	return model
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
	slots  []int    // index i -> position of names[i] in the names given
}

func byteGroups(names []string, widths map[string]int) []byteGroup {
	byPrefix := make(map[string]map[int]int)
	for slot, n := range names {
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
			byPrefix[p] = make(map[int]int)
		}
		byPrefix[p][idx] = slot
	}
	var out []byteGroup
	for p, m := range byPrefix {
		g := byteGroup{prefix: p}
		for i := 0; ; i++ {
			slot, ok := m[i]
			if !ok {
				break
			}
			g.names = append(g.names, names[slot])
			g.slots = append(g.slots, slot)
		}
		if len(g.names) > 0 {
			out = append(out, g)
		}
	}
	// fpSearch picks groups by index from its seeded rng, so their order
	// must not depend on map iteration.
	sort.Slice(out, func(i, j int) bool { return out[i].prefix < out[j].prefix })
	return out
}

// renderNumeric writes the decimal rendering of a log-uniform float into
// the given byte-variable slots (NUL padded), rendering into buf and
// returning it for reuse. This is the move that cracks
// "1024 + x == 1024 && x > 0"-style constraints: it proposes numbers
// spanning forty orders of magnitude.
func renderNumeric(rng *rand.Rand, env []uint64, slots []int, buf []byte) []byte {
	exp := rng.Float64()*40 - 20 // 1e-20 .. 1e+20
	v := math.Pow(10, exp)
	if rng.Intn(4) == 0 {
		v = -v
	}
	if rng.Intn(4) == 0 {
		v = math.Trunc(v)
	}
	buf = strconv.AppendFloat(buf[:0], v, 'f', -1, 64)
	for i, s := range slots {
		if i < len(buf) {
			env[s] = uint64(buf[i])
		} else {
			env[s] = 0
		}
	}
	return buf
}

// penalty evaluates the program on the slot values and sums the
// distance of every constraint from satisfaction, in constraint order;
// zero means the assignment is a model.
func penalty(prog *sym.Program, slots []uint64) float64 {
	prog.Eval(slots)
	var total float64
	for k := 0; k < prog.Constraints(); k++ {
		total += rootPenalty(prog.Root(k))
	}
	return total
}

// rootPenalty returns 0 when a width-1 constraint of value v holds, and
// a positive distance measure otherwise, shaped so hill climbing has
// gradients on comparisons: op, a and b are the root comparison and its
// operand values (op is 0 for any other root).
func rootPenalty(v uint64, op sym.BinOp, a, b uint64) float64 {
	if v == 1 {
		return 0
	}
	switch op {
	case 0:
		return 1000 // unsatisfied non-comparison: flat penalty
	case sym.OpFEq, sym.OpFLt, sym.OpFLe:
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return 1e6
		}
		return 1 + math.Min(1e6, math.Abs(fa-fb))
	default:
		d := float64(a) - float64(b)
		return 1 + math.Min(1e6, math.Abs(d))
	}
}
