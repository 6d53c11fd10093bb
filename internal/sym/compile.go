package sym

import "sort"

// Program is a constraint system compiled for repeated concrete
// evaluation under changing variable values, as the FP local search
// does. Variables live in slots, one per distinct name in sorted order,
// and the DAG is flattened into nodes in topological order, each with a
// value cell. Eval recomputes every cell from a slot vector with the
// same operator semantics as Eval on expressions (binValue, evalUn), so
// a Program and Eval over the equivalent name map agree on every node.
//
// A Program holds its values between calls and is not safe for
// concurrent use.
type Program struct {
	names  []string // slot i holds variable names[i]
	widths []int    // width of slot i
	nodes  []pnode  // operands precede their users
	vals   []uint64 // vals[i] is the value of nodes[i]
	roots  []int32  // roots[k] is the node of constraint k
}

// Node kinds. A constant's cell is set once, at compile time.
const (
	kindConst uint8 = iota
	kindVar
	kindBin
	kindUn
	kindITE
)

// pnode is one flattened expression node. a, b and c index operand
// nodes (condition, then, else for an ITE); for a variable, a is its
// slot. aw and bw are the operand widths, lo an extraction's low bit.
type pnode struct {
	kind, op      uint8
	w, aw, bw, lo uint8
	a, b, c       int32
}

// Compile flattens the constraints into a Program in one walk of their
// DAG. A variable name that occurs at several widths takes the widest as
// its slot width, as VarWidths does.
func Compile(constraints []Expr) *Program {
	c := compiler{index: make(map[Expr]int32), slot: make(map[string]int32)}
	p := &Program{roots: make([]int32, len(constraints))}
	for k, e := range constraints {
		p.roots[k] = c.node(e)
	}
	// Renumber the slots from first-sight order to sorted-name order.
	order := make([]int32, len(c.names))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.names[order[i]] < c.names[order[j]] })
	renum := make([]int32, len(order))
	p.names = make([]string, len(order))
	p.widths = make([]int, len(order))
	for s, old := range order {
		renum[old] = int32(s)
		p.names[s], p.widths[s] = c.names[old], c.widths[old]
	}
	for i := range c.nodes {
		if c.nodes[i].kind == kindVar {
			c.nodes[i].a = renum[c.nodes[i].a]
		}
	}
	p.nodes, p.vals = c.nodes, c.vals
	return p
}

type compiler struct {
	index  map[Expr]int32
	slot   map[string]int32 // slots numbered in first-sight order
	names  []string         // by slot
	widths []int            // by slot
	nodes  []pnode
	vals   []uint64
}

// node returns the index of e's node, appending it after its operands
// on first sight.
func (c *compiler) node(e Expr) int32 {
	if i, ok := c.index[e]; ok {
		return i
	}
	var n pnode
	var v uint64
	switch t := e.(type) {
	case *Const:
		n.kind, v = kindConst, t.V
	case *Var:
		s, ok := c.slot[t.Name]
		if !ok {
			s = int32(len(c.names))
			c.slot[t.Name] = s
			c.names = append(c.names, t.Name)
			c.widths = append(c.widths, 0)
		}
		if t.W > c.widths[s] {
			c.widths[s] = t.W
		}
		n.kind, n.w, n.a = kindVar, uint8(t.W), s
	case *Bin:
		n.a = c.node(t.A)
		n.b = c.node(t.B)
		n.kind, n.op = kindBin, uint8(t.Op)
		n.w, n.aw, n.bw = uint8(t.w), uint8(t.A.Width()), uint8(t.B.Width())
	case *Un:
		n.a = c.node(t.A)
		n.kind, n.op = kindUn, uint8(t.Op)
		n.w, n.aw, n.lo = uint8(t.w), uint8(t.A.Width()), uint8(t.Arg2)
	case *ITE:
		n.a = c.node(t.Cond)
		n.b = c.node(t.Then)
		n.c = c.node(t.Else)
		n.kind = kindITE
	default:
		n.kind = kindConst // foreign Expr: Eval gives 0
	}
	i := int32(len(c.nodes))
	c.index[e] = i
	c.nodes = append(c.nodes, n)
	c.vals = append(c.vals, v)
	return i
}

// Vars returns the variable names in slot order (sorted). The caller
// must not modify it.
func (p *Program) Vars() []string { return p.names }

// Width returns the bit width of slot i.
func (p *Program) Width(i int) int { return p.widths[i] }

// Constraints returns the number of compiled constraints.
func (p *Program) Constraints() int { return len(p.roots) }

// Eval recomputes every node from the slot values; slots[i] is the
// value of Vars()[i]. A nil or short slot vector is not allowed unless
// the program has no variables.
func (p *Program) Eval(slots []uint64) {
	vals := p.vals
	for i := range p.nodes {
		n := &p.nodes[i]
		switch n.kind {
		case kindVar:
			vals[i] = slots[n.a] & mask(int(n.w))
		case kindBin:
			vals[i] = binValue(BinOp(n.op), vals[n.a], vals[n.b], int(n.aw), int(n.bw), int(n.w))
		case kindUn:
			vals[i] = evalUn(UnOp(n.op), vals[n.a], int(n.aw), int(n.w), int(n.lo))
		case kindITE:
			if vals[n.a]&1 == 1 {
				vals[i] = vals[n.b]
			} else {
				vals[i] = vals[n.c]
			}
		}
	}
}

// Root returns the value of constraint k as of the last Eval. When its
// root is a comparison it also returns the operator and both operand
// values; otherwise op is 0.
func (p *Program) Root(k int) (v uint64, op BinOp, a, b uint64) {
	r := p.roots[k]
	n := &p.nodes[r]
	v = p.vals[r]
	if n.kind == kindBin && BinOp(n.op).IsCompare() {
		return v, BinOp(n.op), p.vals[n.a], p.vals[n.b]
	}
	return v, 0, 0, 0
}
