// Package bitblast lowers sym bitvector expressions to CNF over a sat
// solver via Tseitin encoding: ripple-carry adders, shift-and-add
// multipliers, barrel shifters and per-bit muxes. Division has two
// circuits. By a symbolic divisor it is a restoring divider, a
// subtractor and a mux row per bit. By a constant k it is
// multiply-and-check: fresh quotient and remainder vectors q and r
// with q*k + r == a and r < k, one adder per set bit of k; zero and
// powers of two are plain wiring.
// Floating-point operators are rejected — they are routed to the
// stochastic FP solver (or reported as Es3) by the solver front end, the
// same split the paper observes between bitvector and FP theories.
package bitblast

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/sat"
	"repro/internal/sym"
)

// ErrFloat is returned when an expression contains IEEE-754 operators.
var ErrFloat = errors.New("bitblast: floating-point operators unsupported")

// ErrBudget is returned when the circuit exceeds the gate budget; the
// solver front end reports it as an exhausted (Unknown) query.
var ErrBudget = errors.New("bitblast: gate budget exhausted")

// DefaultGateBudget bounds fresh gate variables per encoder.
const DefaultGateBudget = 4_000_000

// Encoder lowers expressions into a sat.Solver.
//
// The per-node CNF cache is keyed on node pointers, which the sym
// arena's hash-consing makes structural: every constructor-built term is
// interned, so two structurally equal subterms — even built through
// different paths, rounds or workers — are one pointer and encode into
// CNF gates exactly once. Assert re-interns its root to extend the same
// guarantee to raw (struct-literal) expressions from tests.
type Encoder struct {
	s        *sat.Solver
	varBit   map[string][]int // sym variable -> sat variables, LSB first
	cache    map[sym.Expr][]sat.Lit
	tru      sat.Lit
	gates    int
	overflow bool
}

// New builds an encoder over the given solver.
func New(s *sat.Solver) *Encoder {
	e := &Encoder{
		s:      s,
		varBit: make(map[string][]int),
		cache:  make(map[sym.Expr][]sat.Lit),
	}
	t := s.NewVar()
	e.tru = sat.MkLit(t, false)
	s.AddClause(e.tru)
	return e
}

// Gates returns the number of fresh gate variables allocated so far —
// the circuit-size metric shared-subterm caching keeps down.
func (e *Encoder) Gates() int { return e.gates }

func (e *Encoder) fls() sat.Lit { return e.tru.Not() }

func (e *Encoder) constLit(b bool) sat.Lit {
	if b {
		return e.tru
	}
	return e.fls()
}

func (e *Encoder) fresh() sat.Lit {
	e.gates++
	if e.gates > DefaultGateBudget {
		e.overflow = true
		return e.tru // placeholder; Assert reports ErrBudget
	}
	return sat.MkLit(e.s.NewVar(), false)
}

// Assert encodes a width-1 expression and asserts it true.
func (e *Encoder) Assert(c sym.Expr) error {
	if c.Width() != 1 {
		return fmt.Errorf("bitblast: assert of width-%d expression", c.Width())
	}
	// Canonicalize so the pointer-keyed cache sees one node per distinct
	// structure. Constructor-built inputs are already interned (O(1));
	// raw trees are canonicalized once here.
	c = sym.Intern(c)
	bits, err := e.encode(c)
	if err != nil {
		return err
	}
	if e.overflow {
		return ErrBudget
	}
	e.s.AddClause(bits[0])
	return nil
}

// Model reads back variable values after a Sat verdict.
func (e *Encoder) Model() map[string]uint64 {
	m := make(map[string]uint64, len(e.varBit))
	for name, bits := range e.varBit {
		var v uint64
		for i, b := range bits {
			if e.s.Value(b) {
				v |= uint64(1) << uint(i)
			}
		}
		m[name] = v
	}
	return m
}

// VarBits returns (and allocates) the sat variables for a sym variable.
func (e *Encoder) VarBits(name string, w int) []int {
	bits, ok := e.varBit[name]
	if !ok {
		bits = make([]int, w)
		for i := range bits {
			bits[i] = e.s.NewVar()
		}
		e.varBit[name] = bits
	}
	return bits
}

func (e *Encoder) encode(x sym.Expr) ([]sat.Lit, error) {
	if bits, ok := e.cache[x]; ok {
		return bits, nil
	}
	bits, err := e.encodeUncached(x)
	if err != nil {
		return nil, err
	}
	e.cache[x] = bits
	return bits, nil
}

func (e *Encoder) encodeUncached(x sym.Expr) ([]sat.Lit, error) {
	switch t := x.(type) {
	case *sym.Const:
		bits := make([]sat.Lit, t.W)
		for i := range bits {
			bits[i] = e.constLit(t.V>>uint(i)&1 == 1)
		}
		return bits, nil

	case *sym.Var:
		vars := e.VarBits(t.Name, t.W)
		bits := make([]sat.Lit, t.W)
		for i, v := range vars {
			bits[i] = sat.MkLit(v, false)
		}
		return bits, nil

	case *sym.Un:
		a, err := e.encode(t.A)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case sym.OpNot:
			out := make([]sat.Lit, len(a))
			for i := range a {
				out[i] = a[i].Not()
			}
			return out, nil
		case sym.OpNeg:
			inv := make([]sat.Lit, len(a))
			for i := range a {
				inv[i] = a[i].Not()
			}
			return e.adder(inv, e.constVec(1, len(a))), nil
		case sym.OpBoolNot:
			return []sat.Lit{a[0].Not()}, nil
		case sym.OpZExt:
			out := make([]sat.Lit, t.Arg)
			copy(out, a)
			for i := len(a); i < t.Arg; i++ {
				out[i] = e.fls()
			}
			return out, nil
		case sym.OpSExt:
			out := make([]sat.Lit, t.Arg)
			copy(out, a)
			for i := len(a); i < t.Arg; i++ {
				out[i] = a[len(a)-1]
			}
			return out, nil
		case sym.OpExtract:
			return a[t.Arg2 : t.Arg+1], nil
		case sym.OpI2F, sym.OpF2I:
			return nil, ErrFloat
		}
		return nil, fmt.Errorf("bitblast: unary op %d", t.Op)

	case *sym.ITE:
		c, err := e.encode(t.Cond)
		if err != nil {
			return nil, err
		}
		a, err := e.encode(t.Then)
		if err != nil {
			return nil, err
		}
		b, err := e.encode(t.Else)
		if err != nil {
			return nil, err
		}
		out := make([]sat.Lit, len(a))
		for i := range a {
			out[i] = e.mux(c[0], a[i], b[i])
		}
		return out, nil

	case *sym.Bin:
		if t.Op.IsFloat() {
			return nil, ErrFloat
		}
		a, err := e.encode(t.A)
		if err != nil {
			return nil, err
		}
		b, err := e.encode(t.B)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case sym.OpAdd:
			return e.adder(a, b), nil
		case sym.OpSub:
			return e.subtract(a, b), nil
		case sym.OpMul:
			return e.multiplier(a, b), nil
		case sym.OpAnd, sym.OpOr, sym.OpXor:
			out := make([]sat.Lit, len(a))
			for i := range a {
				switch t.Op {
				case sym.OpAnd:
					out[i] = e.and(a[i], b[i])
				case sym.OpOr:
					out[i] = e.or(a[i], b[i])
				default:
					out[i] = e.xor(a[i], b[i])
				}
			}
			return out, nil
		case sym.OpShl, sym.OpLShr, sym.OpAShr:
			return e.shifter(t.Op, a, b), nil
		case sym.OpEq:
			return []sat.Lit{e.equal(a, b)}, nil
		case sym.OpNe:
			return []sat.Lit{e.equal(a, b).Not()}, nil
		case sym.OpUlt:
			return []sat.Lit{e.ult(a, b)}, nil
		case sym.OpUle:
			return []sat.Lit{e.ult(b, a).Not()}, nil
		case sym.OpSlt:
			return []sat.Lit{e.slt(a, b)}, nil
		case sym.OpSle:
			return []sat.Lit{e.slt(b, a).Not()}, nil
		case sym.OpUDiv, sym.OpURem, sym.OpSDiv, sym.OpSRem:
			return e.division(t.Op, a, b, t.B), nil
		case sym.OpConcat:
			out := make([]sat.Lit, 0, len(a)+len(b))
			out = append(out, b...)
			out = append(out, a...)
			return out, nil
		}
		return nil, fmt.Errorf("bitblast: binary op %d", t.Op)
	}
	return nil, fmt.Errorf("bitblast: unknown node %T", x)
}

func (e *Encoder) constVec(v uint64, w int) []sat.Lit {
	bits := make([]sat.Lit, w)
	for i := range bits {
		bits[i] = e.constLit(v>>uint(i)&1 == 1)
	}
	return bits
}

// ── gates ────────────────────────────────────────────────────────────

func (e *Encoder) and(a, b sat.Lit) sat.Lit {
	if a == e.tru {
		return b
	}
	if b == e.tru {
		return a
	}
	if a == e.fls() || b == e.fls() {
		return e.fls()
	}
	if a == b {
		return a
	}
	if a == b.Not() {
		return e.fls()
	}
	o := e.fresh()
	e.s.AddClause(a.Not(), b.Not(), o)
	e.s.AddClause(a, o.Not())
	e.s.AddClause(b, o.Not())
	return o
}

func (e *Encoder) or(a, b sat.Lit) sat.Lit {
	return e.and(a.Not(), b.Not()).Not()
}

func (e *Encoder) xor(a, b sat.Lit) sat.Lit {
	if a == e.fls() {
		return b
	}
	if b == e.fls() {
		return a
	}
	if a == e.tru {
		return b.Not()
	}
	if b == e.tru {
		return a.Not()
	}
	if a == b {
		return e.fls()
	}
	if a == b.Not() {
		return e.tru
	}
	o := e.fresh()
	e.s.AddClause(a.Not(), b.Not(), o.Not())
	e.s.AddClause(a, b, o.Not())
	e.s.AddClause(a.Not(), b, o)
	e.s.AddClause(a, b.Not(), o)
	return o
}

// mux returns s ? a : b.
func (e *Encoder) mux(s, a, b sat.Lit) sat.Lit {
	if s == e.tru {
		return a
	}
	if s == e.fls() {
		return b
	}
	if a == b {
		return a
	}
	o := e.fresh()
	e.s.AddClause(s.Not(), a.Not(), o)
	e.s.AddClause(s.Not(), a, o.Not())
	e.s.AddClause(s, b.Not(), o)
	e.s.AddClause(s, b, o.Not())
	return o
}

// ── arithmetic ───────────────────────────────────────────────────────

// adder returns a+b (mod 2^w) via ripple carry.
func (e *Encoder) adder(a, b []sat.Lit) []sat.Lit {
	w := len(a)
	out := make([]sat.Lit, w)
	carry := e.fls()
	for i := 0; i < w; i++ {
		axb := e.xor(a[i], b[i])
		out[i] = e.xor(axb, carry)
		carry = e.or(e.and(a[i], b[i]), e.and(axb, carry))
	}
	return out
}

// adderCarry returns (sum, carryOut) of a+b+cin; used by ult.
func (e *Encoder) adderCarry(a, b []sat.Lit, cin sat.Lit) ([]sat.Lit, sat.Lit) {
	w := len(a)
	out := make([]sat.Lit, w)
	carry := cin
	for i := 0; i < w; i++ {
		axb := e.xor(a[i], b[i])
		out[i] = e.xor(axb, carry)
		carry = e.or(e.and(a[i], b[i]), e.and(axb, carry))
	}
	return out, carry
}

func (e *Encoder) subtract(a, b []sat.Lit) []sat.Lit {
	nb := make([]sat.Lit, len(b))
	for i := range b {
		nb[i] = b[i].Not()
	}
	sum, _ := e.adderCarry(a, nb, e.tru)
	return sum
}

// ult returns the a<b predicate: the borrow of a-b.
func (e *Encoder) ult(a, b []sat.Lit) sat.Lit {
	nb := make([]sat.Lit, len(b))
	for i := range b {
		nb[i] = b[i].Not()
	}
	_, carry := e.adderCarry(a, nb, e.tru)
	return carry.Not()
}

func (e *Encoder) slt(a, b []sat.Lit) sat.Lit {
	w := len(a)
	sa, sb := a[w-1], b[w-1]
	diff := e.xor(sa, sb)
	// different signs: a<b iff a negative; same signs: unsigned compare.
	return e.mux(diff, sa, e.ult(a, b))
}

func (e *Encoder) equal(a, b []sat.Lit) sat.Lit {
	acc := e.tru
	for i := range a {
		acc = e.and(acc, e.xor(a[i], b[i]).Not())
	}
	return acc
}

// multiplier computes a*b (mod 2^w) by shift-and-add.
func (e *Encoder) multiplier(a, b []sat.Lit) []sat.Lit {
	w := len(a)
	acc := e.constVec(0, w)
	for i := 0; i < w; i++ {
		// addend = (b << i) gated by a[i]
		addend := make([]sat.Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				addend[j] = e.fls()
			} else {
				addend[j] = e.and(a[i], b[j-i])
			}
		}
		acc = e.adder(acc, addend)
	}
	return acc
}

// division encodes one of the four division operators of a by b, whose
// expression is divisor: divConst when it is a *sym.Const, the
// restoring divider otherwise. The signed operators divide |a| by |b|
// and fix the signs up afterwards; by zero, constant or symbolic, they
// follow sym.Eval: sdiv gives all ones and srem gives a.
func (e *Encoder) division(op sym.BinOp, a, b []sat.Lit, divisor sym.Expr) []sat.Lit {
	k, isConst := divisor.(*sym.Const)
	if op == sym.OpUDiv || op == sym.OpURem {
		var q, r []sat.Lit
		if isConst {
			q, r = e.divConst(a, k.V)
		} else {
			q, r = e.divider(a, b)
		}
		if op == sym.OpUDiv {
			return q
		}
		return r
	}
	w := len(a)
	sa, sb := a[w-1], b[w-1]
	absA := e.muxVec(sa, e.negate(a), a)
	var q, r []sat.Lit
	switch {
	case !isConst:
		q, r = e.divider(absA, e.muxVec(sb, e.negate(b), b))
		if op == sym.OpSDiv {
			// By zero q is all ones for every a: the sign fix-up
			// applies only to a nonzero divisor.
			nz := e.equal(b, e.constVec(0, w)).Not()
			return e.muxVec(e.and(e.xor(sa, sb), nz), e.negate(q), q)
		}
	case k.V == 0:
		if op == sym.OpSDiv {
			return e.constVec(^uint64(0), w)
		}
		return a
	default:
		absK := k.V
		if sb == e.tru {
			absK = -k.V & (^uint64(0) >> uint(64-w))
		}
		q, r = e.divConst(absA, absK)
	}
	if op == sym.OpSDiv {
		return e.muxVec(e.xor(sa, sb), e.negate(q), q)
	}
	return e.muxVec(sa, e.negate(r), r)
}

// divConst computes unsigned (quotient, remainder) of a by the constant
// k. Zero and powers of two are wiring: a/0 is all ones and a%0 is a
// (SMT-LIB), a/2^m is a[m:] and a%2^m is a[:m]. Any other k gets fresh
// vectors q and r tied to a by q*k + r == a, summed at twice the width
// so it cannot wrap, and by r < k: one adder per set bit of k, where the
// restoring divider spends a subtractor and a mux row per bit of a. The
// ties are asserted outright; each a has exactly one (q, r) meeting
// them, so they never rule an a out.
func (e *Encoder) divConst(a []sat.Lit, k uint64) ([]sat.Lit, []sat.Lit) {
	w := len(a)
	if k == 0 {
		return e.constVec(^uint64(0), w), a
	}
	if k&(k-1) == 0 {
		m := bits.TrailingZeros64(k)
		return e.shiftVec(a, -m, w), e.shiftVec(a[:m], 0, w)
	}
	q := make([]sat.Lit, w)
	r := make([]sat.Lit, w)
	for i := range q {
		q[i] = e.fresh()
		r[i] = e.fresh()
	}
	sum := e.shiftVec(r, 0, 2*w)
	for j := 0; j < w; j++ {
		if k>>uint(j)&1 == 1 {
			sum = e.adder(sum, e.shiftVec(q, j, 2*w))
		}
	}
	for i, s := range sum {
		x := e.fls()
		if i < w {
			x = a[i]
		}
		e.s.AddClause(s.Not(), x)
		e.s.AddClause(s, x.Not())
	}
	// r < k: the carry out of r + ^k + 1 is r >= k, and with k constant
	// each step of its chain is one gate.
	ge := e.tru
	for i := 0; i < w; i++ {
		if k>>uint(i)&1 == 1 {
			ge = e.and(r[i], ge)
		} else {
			ge = e.or(r[i], ge)
		}
	}
	e.s.AddClause(ge.Not())
	return q, r
}

// shiftVec returns v shifted left by s bits (right for negative s) in a
// vector of width w, filled with false.
func (e *Encoder) shiftVec(v []sat.Lit, s, w int) []sat.Lit {
	out := make([]sat.Lit, w)
	for i := range out {
		if j := i - s; j >= 0 && j < len(v) {
			out[i] = v[j]
		} else {
			out[i] = e.fls()
		}
	}
	return out
}

// divider computes unsigned (quotient, remainder) by restoring division.
// Division by zero yields q=all-ones, r=a (SMT-LIB semantics).
func (e *Encoder) divider(a, b []sat.Lit) ([]sat.Lit, []sat.Lit) {
	w := len(a)
	q := make([]sat.Lit, w)
	r := e.constVec(0, w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | a[i]
		nr := make([]sat.Lit, w)
		nr[0] = a[i]
		copy(nr[1:], r[:w-1])
		r = nr
		// if r >= b { r -= b; q[i] = 1 }
		ge := e.ult(r, b).Not()
		sub := e.subtract(r, b)
		for j := 0; j < w; j++ {
			r[j] = e.mux(ge, sub[j], r[j])
		}
		q[i] = ge
	}
	// Division-by-zero override.
	bz := e.equal(b, e.constVec(0, w))
	for j := 0; j < w; j++ {
		q[j] = e.mux(bz, e.tru, q[j])
		r[j] = e.mux(bz, a[j], r[j])
	}
	return q, r
}

func (e *Encoder) negate(a []sat.Lit) []sat.Lit {
	inv := make([]sat.Lit, len(a))
	for i := range a {
		inv[i] = a[i].Not()
	}
	return e.adder(inv, e.constVec(1, len(a)))
}

func (e *Encoder) muxVec(s sat.Lit, a, b []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	for i := range a {
		out[i] = e.mux(s, a[i], b[i])
	}
	return out
}

// shifter builds a barrel shifter. Shift amounts are interpreted modulo
// the width for 64-bit operands (the LB64 semantics); for narrower widths
// any set bit above the stage range forces the shifted-out value.
func (e *Encoder) shifter(op sym.BinOp, a, b []sat.Lit) []sat.Lit {
	w := len(a)
	stages := 0
	for 1<<uint(stages) < w {
		stages++
	}
	cur := append([]sat.Lit(nil), a...)
	for s := 0; s < stages; s++ {
		shift := 1 << uint(s)
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch op {
			case sym.OpShl:
				if i >= shift {
					shifted = cur[i-shift]
				} else {
					shifted = e.fls()
				}
			case sym.OpLShr:
				if i+shift < w {
					shifted = cur[i+shift]
				} else {
					shifted = e.fls()
				}
			default: // OpAShr
				if i+shift < w {
					shifted = cur[i+shift]
				} else {
					shifted = cur[w-1]
				}
			}
			next[i] = e.mux(b[s], shifted, cur[i])
		}
		cur = next
	}
	// For exact power-of-two widths (incl. 64) the amount is naturally
	// masked; otherwise, any higher amount bit saturates the shift.
	var over sat.Lit = e.fls()
	for i := stages; i < len(b); i++ {
		if 1<<uint(stages) == w {
			break
		}
		over = e.or(over, b[i])
	}
	if over != e.fls() {
		satVal := e.fls()
		if op == sym.OpAShr {
			satVal = a[w-1]
		}
		for i := range cur {
			cur[i] = e.mux(over, satVal, cur[i])
		}
	}
	return cur
}
