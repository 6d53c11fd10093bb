// Package sat implements a CDCL boolean satisfiability solver with
// two-watched-literal propagation, VSIDS branching, first-UIP clause
// learning and Luby restarts. It is the decision core under the bitvector
// solver, playing the role MiniSat/STP/Z3 play for the paper's tools.
package sat

import (
	"math"
	"time"
)

// Lit is a literal: variable v asserted positively is v<<1, negated is
// v<<1|1.
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Verdicts.
const (
	Sat Status = iota + 1
	Unsat
	Unknown // budget exhausted
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	}
	return "invalid"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// The clause database holds no pointers. Every clause sits in one
// arena as a size word followed by its literals; a cref is the arena
// index of the size word, so a watcher visit reaches the literals with
// one load. Watchers, reasons and the clause lists are crefs, so the
// garbage collector never scans them and storing one fires no write
// barrier. Deleting a clause leaves it in the arena as dead space;
// reduceLearned copies the live clauses to a fresh arena once dead
// words pass half of it, and relocates every cref held by a clause
// list, a watcher or an assigned variable's reason.

// cref identifies a clause: the arena index of its size word.
type cref uint32

// crefUndef is the reason of a decision, a unit or an unassigned
// variable, and the result of a conflict-free propagation.
const crefUndef cref = math.MaxUint32

// learnedClause is a learned clause with its activity: the clause
// increment at learn time. Nothing bumps it later, so ranking by it
// ranks by age.
type learnedClause struct {
	c   cref
	act float64
}

type watcher struct {
	cref    cref
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena     []Lit // size word and literals of every clause, live or dead
	wasted    int   // arena words of deleted clauses
	clauses   []cref
	learned   []learnedClause
	watches   [][]watcher // indexed by literal
	watchPool []watcher   // unused watch-list slots (see addWatch)

	vals     []lbool // indexed by literal
	level    []int32
	reason   []cref
	trail    []Lit
	trailLim []int
	qhead    int

	varInc   float64
	order    varHeap // holds the variable activities
	polarity []bool

	clauseInc float64

	// Scratch space reused across calls. stamp marks, per literal, the
	// literals of the clause being simplified: those equal to stampGen.
	// seen marks variables during conflict analysis and is all false
	// between analyses. learnt is analyze's output and addBuf the
	// simplified clause of AddClause.
	stamp    []uint32
	stampGen uint32
	seen     []bool
	learnt   []Lit
	addBuf   []Lit

	ok        bool
	conflicts int64
	props     int64
	restarts  int64
	learnedN  int64 // learned clauses created
	deletedN  int64 // learned clauses dropped by DB reduction

	// model is the assignment snapshot taken at the last Sat verdict.
	// Search state is unwound to level 0 before Solve returns, so the
	// instance stays usable for further AddClause/Solve calls; Value
	// reads the snapshot, not the live trail.
	model []lbool
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, clauseInc: 1, ok: true}
}

// Reset returns the solver to the state New gives: no variables, no
// clauses, zeroed counters and increments at 1. Every buffer keeps its
// capacity, and so does each watch list, so a solver reused for a run of
// unrelated instances stops allocating once it has held the largest. A
// search after Reset is bit-identical to one on a new solver: nothing
// the search reads depends on a buffer's capacity, only on its contents,
// and every slot is rewritten before it is read.
func (s *Solver) Reset() {
	*s = Solver{
		arena:     s.arena[:0],
		clauses:   s.clauses[:0],
		learned:   s.learned[:0],
		watches:   s.watches[:0],
		watchPool: s.watchPool,
		vals:      s.vals[:0],
		level:     s.level[:0],
		reason:    s.reason[:0],
		trail:     s.trail[:0],
		trailLim:  s.trailLim[:0],
		varInc:    1,
		order: varHeap{
			act:     s.order.act[:0],
			heap:    s.order.heap[:0],
			indices: s.order.indices[:0],
		},
		polarity:  s.polarity[:0],
		clauseInc: 1,
		stamp:     s.stamp[:0],
		seen:      s.seen[:0],
		learnt:    s.learnt[:0],
		addBuf:    s.addBuf[:0],
		ok:        true,
		model:     s.model[:0],
	}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.order.act = append(s.order.act, 0)
	s.polarity = append(s.polarity, false)
	// Within capacity the two slots may hold lists a Reset left behind:
	// emptied, they keep their room instead of taking new watchPool slots.
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.stamp = append(s.stamp, 0, 0)
	s.seen = append(s.seen, false)
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// lits returns clause c's literals, in place in the arena.
func (s *Solver) lits(c cref) []Lit {
	return s.arena[c+1 : c+1+cref(s.arena[c])]
}

// newClause stores a size word and a copy of lits and returns its cref.
func (s *Solver) newClause(lits []Lit) cref {
	c := cref(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)))
	s.arena = append(s.arena, lits...)
	return c
}

// nextStamp starts a new stamp generation, clearing the stamps when the
// counter wraps so no stale stamp can equal a reused generation.
func (s *Solver) nextStamp() {
	s.stampGen++
	if s.stampGen == 0 {
		clear(s.stamp)
		s.stampGen = 1
	}
}

// simplify copies lits into addBuf without duplicates or literals false
// at level 0. drop reports that the clause needs no storing: it is a
// tautology or already satisfied at level 0. Clauses arrive only at
// level 0, between searches.
func (s *Solver) simplify(lits []Lit) (out []Lit, drop bool) {
	s.nextStamp()
	out = s.addBuf[:0]
	for _, l := range lits {
		if s.stamp[l.Not()] == s.stampGen {
			return nil, true
		}
		if s.stamp[l] == s.stampGen {
			continue
		}
		switch s.vals[l] {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return nil, true
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue
			}
		}
		s.stamp[l] = s.stampGen
		out = append(out, l)
	}
	s.addBuf = out
	return out, false
}

// AddClause adds a clause. It returns false if the formula became
// trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	out, drop := s.simplify(lits)
	if drop {
		return true
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if s.vals[out[0]] == lFalse {
			s.ok = false
			return false
		}
		s.enqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newClause(out)
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c cref) {
	lits := s.lits(c)
	s.addWatch(lits[0].Not(), watcher{cref: c, blocker: lits[1]})
	s.addWatch(lits[1].Not(), watcher{cref: c, blocker: lits[0]})
}

// addWatch appends w to l's watch list. A list's first watchers go in a
// small slot carved from a shared chunk, so a fresh instance allocates
// once per watchChunk literals rather than once per watched literal.
func (s *Solver) addWatch(l Lit, w watcher) {
	ws := s.watches[l]
	if cap(ws) == 0 {
		if len(s.watchPool) < watchSlot {
			s.watchPool = make([]watcher, watchSlot*watchChunk)
		}
		ws = s.watchPool[:0:watchSlot]
		s.watchPool = s.watchPool[watchSlot:]
	}
	s.watches[l] = append(ws, w)
}

// A watch list starts with room for watchSlot watchers, carved from a
// pool of watchChunk such slots.
const watchSlot, watchChunk = 4, 256

func (s *Solver) enqueue(l Lit, from cref) {
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	v := l.Var()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.props++
		falseLit := p.Not()
		// Watchers that stay on p's list are moved down to ws[:j]. No
		// watcher moves onto p's list meanwhile: a new watch is on a
		// literal that is not false, and p's list watches false ~p.
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.cref
			lits := s.arena[c+1 : c+1+cref(s.arena[c])]
			// Ensure lits[1] is the false literal p.Not().
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.vals[first] == lTrue {
				ws[j] = watcher{cref: c, blocker: first}
				j++
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.addWatch(lits[1].Not(), watcher{cref: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			ws[j] = w
			j++
			if s.vals[first] == lFalse {
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = !l.Neg()
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
		s.reason[v] = crefUndef
		s.order.push(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backtrack level.
// The clause lives in a scratch buffer valid until the next analyze.
func (s *Solver) analyze(conflict cref) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := conflict

	for {
		lits := s.lits(c)
		if p != -1 {
			lits = lits[1:]
		}
		for _, q := range lits {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal to expand.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learnt[0] = p.Not()
	// Every current-level mark was cleared as the walk expanded it;
	// clear the rest.
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}
	s.learnt = learnt

	// Compute backtrack level: max level among tail literals.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

func (s *Solver) bumpVar(v int) {
	act := s.order.act
	act[v] += s.varInc
	if act[v] > 1e100 {
		for i := range act {
			act[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.clauseInc /= 0.999
}

func (s *Solver) pickBranchVar() int {
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.vals[MkLit(v, false)] == lUndef {
			return v
		}
	}
	return -1
}

// reduceLearned drops the learned clauses below the mean activity,
// keeping reasons and binaries. Activity is fixed at learn time and the
// clause increment only grows, so this keeps roughly the more recently
// learned half. Once dead words pass half the arena it compacts.
func (s *Solver) reduceLearned() {
	if len(s.learned) < 4000 {
		return
	}
	lim := s.meanAct()
	kept := s.learned[:0]
	for _, l := range s.learned {
		size := int(s.arena[l.c])
		if l.act >= lim || s.isReason(l.c) || size <= 2 {
			kept = append(kept, l)
		} else {
			s.unwatch(l.c)
			s.wasted += 1 + size
			s.deletedN++
		}
	}
	s.learned = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

func (s *Solver) meanAct() float64 {
	var sum float64
	for _, l := range s.learned {
		sum += l.act
	}
	return sum / float64(len(s.learned))
}

// compact copies the live clauses to a fresh arena, problem clauses
// first, and relocates every cref. It runs in mid-search, so besides
// the clause lists and the watchers it relocates the reason of every
// assigned variable; unassigned variables have none. Each clause's old
// size word holds its new cref while the old arena is still read.
func (s *Solver) compact() {
	old := s.arena
	arena := make([]Lit, 0, len(old)-s.wasted)
	move := func(c cref) cref {
		n := cref(len(arena))
		arena = append(arena, old[c:c+1+cref(old[c])]...)
		old[c] = Lit(n)
		return n
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i := range s.learned {
		s.learned[i].c = move(s.learned[i].c)
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].cref = cref(old[ws[i].cref])
		}
	}
	for _, l := range s.trail {
		if r := &s.reason[l.Var()]; *r != crefUndef {
			*r = cref(old[*r])
		}
	}
	s.arena = arena
	s.wasted = 0
}

func (s *Solver) isReason(c cref) bool {
	l := s.arena[c+1]
	return s.vals[l] != lUndef && s.reason[l.Var()] == c
}

func (s *Solver) unwatch(c cref) {
	lits := s.lits(c)
	for _, w := range [2]Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].cref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k-1) && i < (int64(1)<<uint(k))-1 {
			return luby(i - (int64(1) << uint(k-1)) + 1)
		}
	}
}

// Solve searches for a model. maxConflicts bounds the number of
// conflicts spent in this call before giving up with Unknown (<= 0
// means a large default); on a persistent instance the budget is
// per-call, not cumulative across calls.
func (s *Solver) Solve(maxConflicts int64) Status {
	return s.SolveDeadline(maxConflicts, time.Time{})
}

// SolveDeadline is Solve with an additional wall-clock deadline (zero
// means none); exceeding it returns Unknown, modeling the analysis
// timeouts that produce the paper's E outcomes.
func (s *Solver) SolveDeadline(maxConflicts int64, deadline time.Time) Status {
	return s.SolveInterruptible(maxConflicts, deadline, nil)
}

// SolveInterruptible is SolveDeadline with an additional interruption
// probe, polled at restart boundaries (every few hundred conflicts).
// When interrupted returns true the search gives up with Unknown, which
// is how a cancelled analysis context stops a long-running query without
// waiting for its conflict or wall-clock budget. A nil probe means none.
//
// Learned clauses, variable activities and saved phases are retained for
// the next call. Search state is unwound to level 0 before returning, so
// clauses may be added between calls; on Sat the assignment is
// snapshotted first and served by Value.
func (s *Solver) SolveInterruptible(maxConflicts int64, deadline time.Time, interrupted func() bool) Status {
	if !s.ok {
		return Unsat
	}
	limit := int64(math.MaxInt64)
	if maxConflicts > 0 && s.conflicts < math.MaxInt64-maxConflicts {
		limit = s.conflicts + maxConflicts
	}
	restart := int64(0)
	for s.conflicts < limit {
		if !deadline.IsZero() && time.Now().After(deadline) {
			s.backtrack(0)
			return Unknown
		}
		if interrupted != nil && interrupted() {
			s.backtrack(0)
			return Unknown
		}
		restart++
		s.restarts++
		switch st := s.search(100*luby(restart), limit); st {
		case Sat:
			s.saveModel()
			s.backtrack(0)
			return Sat
		case Unsat:
			s.backtrack(0)
			return Unsat
		}
		s.backtrack(0)
	}
	s.backtrack(0)
	return Unknown
}

func (s *Solver) search(budget, limit int64) Status {
	local := int64(0)
	for {
		conflict := s.propagate()
		if conflict != crefUndef {
			s.conflicts++
			local++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(conflict)
			s.backtrack(btLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], crefUndef)
			} else {
				c := s.newClause(learnt)
				s.learned = append(s.learned, learnedClause{c, s.clauseInc})
				s.learnedN++
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.decayActivities()
			if local >= budget || s.conflicts >= limit {
				return Unknown
			}
			continue
		}
		s.reduceLearned()
		v := s.pickBranchVar()
		if v < 0 {
			return Sat
		}
		s.newDecisionLevel()
		s.enqueue(MkLit(v, !s.polarity[v]), crefUndef)
	}
}

// saveModel snapshots the current (total) assignment so Value stays
// meaningful after the search state is unwound and more clauses are
// added.
func (s *Solver) saveModel() {
	n := s.NumVars()
	if cap(s.model) < n {
		s.model = make([]lbool, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.vals[MkLit(v, false)]
	}
}

// Value returns the assignment of variable v in the last Sat result.
// Variables allocated after that result read as false.
func (s *Solver) Value(v int) bool { return v < len(s.model) && s.model[v] == lTrue }

// Stats is the solver work profile. Conflicts and Propagations are
// cumulative over the instance's lifetime; on a persistent instance,
// difference them around a call to charge that call.
type Stats struct {
	Conflicts    int64
	Propagations int64
	Restarts     int64
	Learned      int64 // learned clauses created
	Deleted      int64 // learned clauses dropped by DB reduction
}

// LearnedLive returns the learned clauses currently retained.
func (st Stats) LearnedLive() int64 { return st.Learned - st.Deleted }

// Stats returns the solver work counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.conflicts,
		Propagations: s.props,
		Restarts:     s.restarts,
		Learned:      s.learnedN,
		Deleted:      s.deletedN,
	}
}

// varHeap is a max-heap over variable activity. It holds the
// activities, indexed by variable.
type varHeap struct {
	act     []float64
	heap    []int
	indices []int
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(a, b int) bool { return h.act[a] > h.act[b] }

func (h *varHeap) push(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if len(h.indices) > v && h.indices[v] >= 0 {
		h.up(h.indices[v])
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			break
		}
		c := l
		if r := l + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			c = r
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.indices[v] = i
}
