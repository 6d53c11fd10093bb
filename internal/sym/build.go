package sym

// Simplifying constructors. Every expression the executor builds goes
// through these, so constant subtrees fold away and the solver sees small
// terms. Simplification preserves Eval semantics exactly (property-tested).
//
// Results are hash-consed (see intern.go): building the same term twice
// returns the same pointer, so structural equality between
// constructor-built expressions is pointer equality and downstream
// per-node caches hit on shared subterms regardless of construction path.

// NewBin builds a binary operation, folding constants and applying cheap
// algebraic identities.
func NewBin(op BinOp, a, b Expr) Expr {
	w := a.Width()
	if op.IsCompare() {
		w = 1
	}
	if op == OpConcat {
		w = a.Width() + b.Width()
		if w > 64 {
			panic("sym: concat wider than 64 bits")
		}
	}

	ca, aConst := a.(*Const)
	cb, bConst := b.(*Const)
	if aConst && bConst {
		return NewConst(binValue(op, ca.V, cb.V, a.Width(), b.Width(), w), w)
	}

	// Identities with a constant on one side.
	if bConst {
		switch {
		case cb.V == 0 && (op == OpAdd || op == OpSub || op == OpOr ||
			op == OpXor || op == OpShl || op == OpLShr || op == OpAShr):
			return a
		case cb.V == 0 && (op == OpAnd || op == OpMul):
			return NewConst(0, w)
		case cb.V == mask(a.Width()) && op == OpAnd:
			return a
		case cb.V == 1 && op == OpMul:
			return a
		}
	}
	if aConst {
		switch {
		case ca.V == 0 && (op == OpAdd || op == OpOr || op == OpXor):
			return b
		case ca.V == 0 && (op == OpAnd || op == OpMul):
			return NewConst(0, w)
		case ca.V == mask(b.Width()) && op == OpAnd:
			return b
		case ca.V == 1 && op == OpMul:
			return b
		}
	}

	// x == x and friends on identical subtrees. Interning makes this
	// pointer check structural: any two constructor-built equal terms
	// share one node.
	if a == b {
		switch op {
		case OpEq, OpUle, OpSle:
			return True()
		case OpNe, OpUlt, OpSlt:
			return False()
		case OpXor, OpSub:
			return NewConst(0, w)
		case OpAnd, OpOr:
			return a
		}
	}

	return internBin(op, a, b, w)
}

// NewNot builds bitwise negation.
func NewNot(a Expr) Expr {
	if c, ok := a.(*Const); ok {
		return NewConst(^c.V, c.W)
	}
	// ~~x = x
	if u, ok := a.(*Un); ok && u.Op == OpNot {
		return u.A
	}
	return internUn(OpNot, a, 0, 0, a.Width())
}

// NewNeg builds two's-complement negation.
func NewNeg(a Expr) Expr {
	if c, ok := a.(*Const); ok {
		return NewConst(-c.V, c.W)
	}
	return internUn(OpNeg, a, 0, 0, a.Width())
}

// NewBoolNot negates a width-1 expression.
func NewBoolNot(a Expr) Expr {
	if a.Width() != 1 {
		panic("sym: BoolNot on non-boolean")
	}
	if c, ok := a.(*Const); ok {
		return NewConst(c.V^1, 1)
	}
	if u, ok := a.(*Un); ok && u.Op == OpBoolNot {
		return u.A
	}
	// Push negation through integer comparisons: !(a == b) -> a != b,
	// !(a <u b) -> b <=u a. Float comparisons stay wrapped because NaN
	// breaks the duality.
	if b, ok := a.(*Bin); ok {
		switch b.Op {
		case OpEq:
			return NewBin(OpNe, b.A, b.B)
		case OpNe:
			return NewBin(OpEq, b.A, b.B)
		case OpUlt:
			return NewBin(OpUle, b.B, b.A)
		case OpUle:
			return NewBin(OpUlt, b.B, b.A)
		case OpSlt:
			return NewBin(OpSle, b.B, b.A)
		case OpSle:
			return NewBin(OpSlt, b.B, b.A)
		}
	}
	return internUn(OpBoolNot, a, 0, 0, 1)
}

// NewZExt zero-extends a to w bits.
func NewZExt(a Expr, w int) Expr {
	if a.Width() == w {
		return a
	}
	if a.Width() > w {
		return NewExtract(a, w-1, 0)
	}
	if c, ok := a.(*Const); ok {
		return NewConst(c.V, w)
	}
	return internUn(OpZExt, a, w, 0, w)
}

// NewSExt sign-extends a to w bits.
func NewSExt(a Expr, w int) Expr {
	if a.Width() == w {
		return a
	}
	if a.Width() > w {
		return NewExtract(a, w-1, 0)
	}
	if c, ok := a.(*Const); ok {
		return NewConst(signExtend(c.V, c.W), w)
	}
	return internUn(OpSExt, a, w, 0, w)
}

// NewExtract takes bits hi..lo (inclusive) of a.
func NewExtract(a Expr, hi, lo int) Expr {
	if hi < lo || hi >= a.Width() || lo < 0 {
		panic("sym: bad extract range")
	}
	w := hi - lo + 1
	if w == a.Width() {
		return a
	}
	if c, ok := a.(*Const); ok {
		return NewConst(c.V>>uint(lo), w)
	}
	// extract of extract composes.
	if u, ok := a.(*Un); ok && u.Op == OpExtract {
		return NewExtract(u.A, u.Arg2+hi, u.Arg2+lo)
	}
	// extract of zext: if fully inside the original, drop the extension.
	if u, ok := a.(*Un); ok && u.Op == OpZExt {
		iw := u.A.Width()
		if hi < iw {
			return NewExtract(u.A, hi, lo)
		}
		if lo >= iw {
			return NewConst(0, w)
		}
	}
	// extract of concat: take from the matching half when aligned.
	if b, ok := a.(*Bin); ok && b.Op == OpConcat {
		bw := b.B.Width()
		if hi < bw {
			return NewExtract(b.B, hi, lo)
		}
		if lo >= bw {
			return NewExtract(b.A, hi-bw, lo-bw)
		}
	}
	return internUn(OpExtract, a, hi, lo, w)
}

// NewConcat concatenates a (high bits) with b (low bits).
func NewConcat(a, b Expr) Expr {
	return NewBin(OpConcat, a, b)
}

// NewITE builds if-then-else over a width-1 condition.
func NewITE(cond, then, els Expr) Expr {
	if cond.Width() != 1 {
		panic("sym: ITE condition must be width 1")
	}
	if then.Width() != els.Width() {
		panic("sym: ITE branch width mismatch")
	}
	if c, ok := cond.(*Const); ok {
		if c.V&1 == 1 {
			return then
		}
		return els
	}
	if then == els {
		return then
	}
	return internITE(cond, then, els)
}

// NewI2F converts a signed 64-bit integer to f64 bits.
func NewI2F(a Expr) Expr {
	if c, ok := a.(*Const); ok {
		return NewConst(evalUn(OpI2F, c.V, c.W, 64, 0), 64)
	}
	return internUn(OpI2F, a, 0, 0, 64)
}

// NewF2I truncates f64 bits to a signed 64-bit integer.
func NewF2I(a Expr) Expr {
	if c, ok := a.(*Const); ok {
		return NewConst(evalUn(OpF2I, c.V, c.W, 64, 0), 64)
	}
	return internUn(OpF2I, a, 0, 0, 64)
}

// Bytes splits a wide expression into its little-endian byte expressions.
func Bytes(e Expr) []Expr {
	n := e.Width() / 8
	if e.Width()%8 != 0 {
		panic("sym: Bytes on non-byte-width expression")
	}
	out := make([]Expr, n)
	for i := 0; i < n; i++ {
		out[i] = NewExtract(e, i*8+7, i*8)
	}
	return out
}

// FromBytes assembles little-endian byte expressions into one value.
func FromBytes(bytes []Expr) Expr {
	if len(bytes) == 0 {
		panic("sym: FromBytes of nothing")
	}
	e := bytes[len(bytes)-1]
	for i := len(bytes) - 2; i >= 0; i-- {
		e = NewConcat(e, bytes[i])
	}
	return e
}
