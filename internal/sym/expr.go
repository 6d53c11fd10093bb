// Package sym defines the symbolic expression language shared by the
// symbolic executor and the constraint solver: fixed-width bitvector terms
// with IEEE-754 float operations over 64-bit patterns, a simplifying
// constructor layer, a concrete evaluator and an SMT-LIB v2 printer.
//
// Widths run from 1 to 64 bits; boolean values are width-1 bitvectors,
// matching the SMT bitvector style the paper's tools emit.
package sym

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Expr is a symbolic bitvector expression.
type Expr interface {
	// Width returns the bit width of the expression (1..64).
	Width() int
	// String renders a compact human-readable form.
	String() string
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators. F-prefixed operators interpret their 64-bit operands
// as IEEE-754 doubles.
const (
	OpAdd BinOp = iota + 1
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	OpEq  // width 1 result
	OpNe  // width 1 result
	OpUlt // width 1 result
	OpUle // width 1 result
	OpSlt // width 1 result
	OpSle // width 1 result
	OpConcat
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFEq // width 1 result
	OpFLt // width 1 result
	OpFLe // width 1 result
)

var binNames = map[BinOp]string{
	OpAdd: "bvadd", OpSub: "bvsub", OpMul: "bvmul",
	OpUDiv: "bvudiv", OpSDiv: "bvsdiv", OpURem: "bvurem", OpSRem: "bvsrem",
	OpAnd: "bvand", OpOr: "bvor", OpXor: "bvxor",
	OpShl: "bvshl", OpLShr: "bvlshr", OpAShr: "bvashr",
	OpEq: "=", OpNe: "distinct", OpUlt: "bvult", OpUle: "bvule",
	OpSlt: "bvslt", OpSle: "bvsle", OpConcat: "concat",
	OpFAdd: "fp.add", OpFSub: "fp.sub", OpFMul: "fp.mul", OpFDiv: "fp.div",
	OpFEq: "fp.eq", OpFLt: "fp.lt", OpFLe: "fp.leq",
}

// String returns the SMT-LIB operator name.
func (op BinOp) String() string {
	if s, ok := binNames[op]; ok {
		return s
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

// IsCompare reports whether the operator yields a width-1 result.
func (op BinOp) IsCompare() bool {
	switch op {
	case OpEq, OpNe, OpUlt, OpUle, OpSlt, OpSle, OpFEq, OpFLt, OpFLe:
		return true
	}
	return false
}

// IsFloat reports whether the operator has IEEE-754 semantics.
func (op BinOp) IsFloat() bool {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFEq, OpFLt, OpFLe:
		return true
	}
	return false
}

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota + 1
	OpNeg
	OpZExt    // extend to Arg bits
	OpSExt    // extend to Arg bits
	OpExtract // bits [Arg2 .. Arg1] inclusive, Arg1 = hi, Arg2 = lo
	OpI2F     // signed int64 -> f64 bits
	OpF2I     // f64 bits -> truncated int64
	OpBoolNot // width-1 logical negation
)

// Const is a constant bitvector.
type Const struct {
	W int
	V uint64
	hc
}

// Width implements Expr.
func (c *Const) Width() int { return c.W }

func (c *Const) String() string {
	if c.W == 1 {
		if c.V == 0 {
			return "false"
		}
		return "true"
	}
	return fmt.Sprintf("%#x", c.V)
}

// Var is a symbolic variable (an input byte or environment word).
type Var struct {
	Name string
	W    int
	hc
}

// Width implements Expr.
func (v *Var) Width() int { return v.W }

func (v *Var) String() string { return v.Name }

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	A, B Expr
	w    int
	hc
}

// Width implements Expr.
func (b *Bin) Width() int { return b.w }

func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Op, b.A, b.B)
}

// Un is a unary operation. Arg/Arg2 carry widths for extensions and the
// hi/lo bit positions for extraction.
type Un struct {
	Op   UnOp
	A    Expr
	Arg  int
	Arg2 int
	w    int
	hc
}

// Width implements Expr.
func (u *Un) Width() int { return u.w }

func (u *Un) String() string {
	switch u.Op {
	case OpNot:
		return fmt.Sprintf("(bvnot %s)", u.A)
	case OpNeg:
		return fmt.Sprintf("(bvneg %s)", u.A)
	case OpZExt:
		return fmt.Sprintf("(zext%d %s)", u.Arg, u.A)
	case OpSExt:
		return fmt.Sprintf("(sext%d %s)", u.Arg, u.A)
	case OpExtract:
		return fmt.Sprintf("(extract %d %d %s)", u.Arg, u.Arg2, u.A)
	case OpI2F:
		return fmt.Sprintf("(to_fp %s)", u.A)
	case OpF2I:
		return fmt.Sprintf("(fp.to_sbv %s)", u.A)
	case OpBoolNot:
		return fmt.Sprintf("(not %s)", u.A)
	}
	return fmt.Sprintf("(unop%d %s)", int(u.Op), u.A)
}

// ITE is if-then-else over a width-1 condition.
type ITE struct {
	Cond Expr
	Then Expr
	Else Expr
	hc
}

// Width implements Expr.
func (i *ITE) Width() int { return i.Then.Width() }

func (i *ITE) String() string {
	return fmt.Sprintf("(ite %s %s %s)", i.Cond, i.Then, i.Else)
}

// mask returns the w-bit mask.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// NewConst builds a constant, truncating v to w bits. The result is
// interned: structurally equal constants share one node.
func NewConst(v uint64, w int) *Const {
	return internConst(w, v&mask(w))
}

// True and False are the width-1 constants.
func True() *Const  { return NewConst(1, 1) }
func False() *Const { return NewConst(0, 1) }

// NewVar builds a variable reference. The result is interned:
// structurally equal variables share one node.
func NewVar(name string, w int) *Var { return internVar(name, w) }

// Vars returns the variable names appearing in the expressions, sorted.
// Expressions are DAGs with heavy sharing (crypto traces reuse register
// state thousands of times), so every structural walker memoizes visited
// nodes — tree recursion would be exponential.
func Vars(exprs ...Expr) []string {
	set := VarWidths(exprs...)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// VarWidths returns name -> width for all variables in the expressions.
// A name that occurs at several widths maps to the widest, so the answer
// does not depend on the order or the sharing of the walk: a raw build
// and its interned build agree.
func VarWidths(exprs ...Expr) map[string]int {
	set := make(map[string]int)
	seen := make(map[Expr]bool)
	var walk func(Expr)
	walk = func(e Expr) {
		if seen[e] {
			return
		}
		seen[e] = true
		switch t := e.(type) {
		case *Var:
			if t.W > set[t.Name] {
				set[t.Name] = t.W
			}
		case *Bin:
			walk(t.A)
			walk(t.B)
		case *Un:
			walk(t.A)
		case *ITE:
			walk(t.Cond)
			walk(t.Then)
			walk(t.Else)
		}
	}
	for _, e := range exprs {
		if e != nil {
			walk(e)
		}
	}
	return set
}

// HasFloat reports whether any float operator (a float BinOp, OpI2F or
// OpF2I) appears in the expressions.
func HasFloat(exprs ...Expr) bool { return anyFlag(flFloat, exprs) }

// HasEnvVar reports whether any variable named EnvVarPrefix + ...
// appears in the expressions.
func HasEnvVar(exprs ...Expr) bool { return anyFlag(flEnv, exprs) }

// HasITE reports whether an if-then-else node appears in the
// expressions.
func HasITE(exprs ...Expr) bool { return anyFlag(flITE, exprs) }

// anyFlag reports whether flag f is set on any of the expressions. For
// constructor-built nodes it is a field read; raw trees are walked with
// a memo, as Digest and TreeNodes do.
func anyFlag(f uint8, exprs []Expr) bool {
	var memo map[Expr]bool
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if m := meta(e); m != nil && m.fl != 0 {
			if m.fl&f != 0 {
				return true
			}
			continue
		}
		if memo == nil {
			memo = make(map[Expr]bool)
		}
		if flagWalk(e, f, memo) {
			return true
		}
	}
	return false
}

func flagWalk(e Expr, f uint8, memo map[Expr]bool) bool {
	if m := meta(e); m != nil && m.fl != 0 {
		return m.fl&f != 0
	}
	if v, ok := memo[e]; ok {
		return v
	}
	var v bool
	switch t := e.(type) {
	case *Var:
		v = varFlags(t.Name)&f != 0
	case *Bin:
		v = binFlags(t.Op)&f != 0 || flagWalk(t.A, f, memo) || flagWalk(t.B, f, memo)
	case *Un:
		v = unFlags(t.Op)&f != 0 || flagWalk(t.A, f, memo)
	case *ITE:
		v = f&flITE != 0 || flagWalk(t.Cond, f, memo) || flagWalk(t.Then, f, memo) || flagWalk(t.Else, f, memo)
	}
	memo[e] = v
	return v
}

// Size returns the number of distinct nodes in the expression DAG.
func Size(e Expr) int {
	seen := make(map[Expr]bool)
	var walk func(Expr)
	walk = func(x Expr) {
		if seen[x] {
			return
		}
		seen[x] = true
		switch t := x.(type) {
		case *Bin:
			walk(t.A)
			walk(t.B)
		case *Un:
			walk(t.A)
		case *ITE:
			walk(t.Cond)
			walk(t.Then)
			walk(t.Else)
		}
	}
	walk(e)
	return len(seen)
}

// SMTLib renders a constraint set as an SMT-LIB v2 script with bitvector
// declarations and assertions, the format the paper's tools exchange with
// their solvers.
func SMTLib(constraints []Expr) string {
	var b strings.Builder
	b.WriteString("(set-logic QF_BV)\n")
	widths := VarWidths(constraints...)
	names := make([]string, 0, len(widths))
	for n := range widths {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "(declare-const %s (_ BitVec %d))\n", smtName(n), widths[n])
	}
	for _, c := range constraints {
		fmt.Fprintf(&b, "(assert %s)\n", smtExpr(c))
	}
	b.WriteString("(check-sat)\n(get-model)\n")
	return b.String()
}

func smtName(n string) string {
	r := strings.NewReplacer("[", "_", "]", "", ":", "_", "/", "_", ".", "_")
	return "v_" + r.Replace(n)
}

func smtExpr(e Expr) string {
	switch t := e.(type) {
	case *Const:
		return fmt.Sprintf("(_ bv%d %d)", t.V, t.W)
	case *Var:
		return smtName(t.Name)
	case *Bin:
		if t.Op == OpNe {
			return fmt.Sprintf("(distinct %s %s)", smtExpr(t.A), smtExpr(t.B))
		}
		return fmt.Sprintf("(%s %s %s)", t.Op, smtExpr(t.A), smtExpr(t.B))
	case *Un:
		switch t.Op {
		case OpZExt:
			return fmt.Sprintf("((_ zero_extend %d) %s)", t.Arg-t.A.Width(), smtExpr(t.A))
		case OpSExt:
			return fmt.Sprintf("((_ sign_extend %d) %s)", t.Arg-t.A.Width(), smtExpr(t.A))
		case OpExtract:
			return fmt.Sprintf("((_ extract %d %d) %s)", t.Arg, t.Arg2, smtExpr(t.A))
		case OpNot:
			return fmt.Sprintf("(bvnot %s)", smtExpr(t.A))
		case OpNeg:
			return fmt.Sprintf("(bvneg %s)", smtExpr(t.A))
		case OpBoolNot:
			return fmt.Sprintf("(bvnot %s)", smtExpr(t.A))
		case OpI2F:
			return fmt.Sprintf("((_ to_fp 11 53) RNE %s)", smtExpr(t.A))
		case OpF2I:
			return fmt.Sprintf("((_ fp.to_sbv 64) RTZ %s)", smtExpr(t.A))
		}
	case *ITE:
		return fmt.Sprintf("(ite (= %s (_ bv1 1)) %s %s)",
			smtExpr(t.Cond), smtExpr(t.Then), smtExpr(t.Else))
	}
	return "?"
}

// evalMemoMin is the tree size beyond which Eval switches from the
// plain recursive walk to a memoized one. The memo exists to tame
// exponential tree blowup on heavily-shared DAGs, where the tree count
// dwarfs this threshold immediately; flat terms with little sharing
// stay on the allocation-free walk. Those are most of what Eval sees:
// model minimization and validation re-evaluate every constraint of a
// system once per variable, and a per-call map on such a term costs
// more than walking it.
const evalMemoMin = 4096

// Eval computes the concrete value of e under the environment (variable
// name -> value). Missing variables evaluate to zero.
//
// Expressions are DAGs with heavy sharing, and hash-consing makes the
// sharing pervasive: a term's tree form can be exponentially larger
// than its node count. Eval therefore memoizes shared subterms when the
// precomputed tree count (stamped at interning) is large, staying
// linear in distinct nodes; small terms keep the allocation-free walk.
func Eval(e Expr, env map[string]uint64) uint64 {
	if m := meta(e); m != nil && m.tn > evalMemoMin {
		return evalExpr(e, env, make(map[Expr]uint64))
	}
	return evalExpr(e, env, nil)
}

func evalExpr(e Expr, env map[string]uint64, memo map[Expr]uint64) uint64 {
	if memo != nil {
		if v, ok := memo[e]; ok {
			return v
		}
	}
	v := evalNode(e, env, memo)
	if memo != nil {
		switch e.(type) {
		case *Bin, *Un, *ITE:
			memo[e] = v
		}
	}
	return v
}

func evalNode(e Expr, env map[string]uint64, memo map[Expr]uint64) uint64 {
	switch t := e.(type) {
	case *Const:
		return t.V
	case *Var:
		return env[t.Name] & mask(t.W)
	case *Bin:
		a := evalExpr(t.A, env, memo)
		b := evalExpr(t.B, env, memo)
		return binValue(t.Op, a, b, t.A.Width(), t.B.Width(), t.w)
	case *Un:
		return evalUn(t.Op, evalExpr(t.A, env, memo), t.A.Width(), t.w, t.Arg2)
	case *ITE:
		if evalExpr(t.Cond, env, memo)&1 == 1 {
			return evalExpr(t.Then, env, memo)
		}
		return evalExpr(t.Else, env, memo)
	}
	return 0
}

func signExtend(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	if v&(uint64(1)<<(uint(w)-1)) != 0 {
		return v | ^mask(w)
	}
	return v
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// binValue is the value of a w-bit binary node whose operands a and b
// are aw and bw bits wide.
func binValue(op BinOp, a, b uint64, aw, bw, w int) uint64 {
	if op == OpConcat {
		return ((a << uint(bw)) | b) & mask(w)
	}
	return evalBin(op, a, b, aw) & mask(w)
}

// evalUn is the value of a w-bit unary node over an aw-bit operand a;
// lo is the low bit of an extraction.
func evalUn(op UnOp, a uint64, aw, w, lo int) uint64 {
	switch op {
	case OpNot:
		return ^a & mask(w)
	case OpNeg:
		return (-a) & mask(w)
	case OpZExt:
		return a
	case OpSExt:
		return signExtend(a, aw) & mask(w)
	case OpExtract:
		return (a >> uint(lo)) & mask(w)
	case OpI2F:
		return math.Float64bits(float64(int64(signExtend(a, aw))))
	case OpF2I:
		f := math.Float64frombits(a)
		switch {
		case math.IsNaN(f):
			return 0
		case f >= math.MaxInt64:
			return math.MaxInt64
		case f <= math.MinInt64:
			return 0x8000_0000_0000_0000
		default:
			return uint64(int64(f))
		}
	case OpBoolNot:
		return (a ^ 1) & 1
	}
	return 0
}

func evalBin(op BinOp, a, b uint64, w int) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpUDiv:
		if b == 0 {
			return mask(w)
		}
		return a / b
	case OpSDiv:
		if b == 0 {
			return mask(w)
		}
		sa, sb := int64(signExtend(a, w)), int64(signExtend(b, w))
		return uint64(sa / sb)
	case OpURem:
		if b == 0 {
			return a
		}
		return a % b
	case OpSRem:
		if b == 0 {
			return a
		}
		sa, sb := int64(signExtend(a, w)), int64(signExtend(b, w))
		return uint64(sa % sb)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & uint64(w-1))
	case OpLShr:
		return a >> (b & uint64(w-1))
	case OpAShr:
		return uint64(int64(signExtend(a, w)) >> (b & uint64(w-1)))
	case OpEq:
		return boolBit(a == b)
	case OpNe:
		return boolBit(a != b)
	case OpUlt:
		return boolBit(a < b)
	case OpUle:
		return boolBit(a <= b)
	case OpSlt:
		return boolBit(int64(signExtend(a, w)) < int64(signExtend(b, w)))
	case OpSle:
		return boolBit(int64(signExtend(a, w)) <= int64(signExtend(b, w)))
	case OpConcat:
		return 0 // handled by caller widths; see NewConcat
	case OpFAdd:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	case OpFSub:
		return math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
	case OpFMul:
		return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
	case OpFDiv:
		return math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b))
	case OpFEq:
		return boolBit(math.Float64frombits(a) == math.Float64frombits(b))
	case OpFLt:
		return boolBit(math.Float64frombits(a) < math.Float64frombits(b))
	case OpFLe:
		return boolBit(math.Float64frombits(a) <= math.Float64frombits(b))
	}
	return 0
}
