package solver

import (
	"context"
	"testing"

	"repro/internal/sym"
)

// The solver stress suite: constraint-problem bombs modeled on the
// "Benchmarking Symbolic Execution Using Constraint Problems" angle —
// integer factorization through the bitblasted multiplier, the
// classically CDCL-hard family. Sat instances factor a semiprime
// (a·b = N with 1 < a ≤ b, product at double width so it cannot wrap);
// unsat instances "factor" a prime, forcing a full refutation.
//
// Each budget covers what fresh solving needs for the instance, in
// suite order 3,488 / 1,600 / 2,049 / 6,667 conflicts, so the suite
// separates a mode that decides every instance at these budgets from
// one that exhausts some of them.
type stressInstance struct {
	name    string
	w       int    // factor width; product is 2w wide
	n       uint64 // the number to factor
	budget  int64  // MaxConflicts per attempt
	wantSat bool   // verdict when solved conclusively
}

func stressSuite() []stressInstance {
	return []stressInstance{
		{"factor-semiprime-24", 24, 16768681, 6_000, true}, // fresh needs 3,488 conflicts
		{"factor-prime-18", 18, 262139, 4_000, false},
		{"factor-prime-20", 20, 1048573, 4_000, false},
		{"factor-semiprime-26", 26, 67239919, 10_000, true},
	}
}

// stressFactorSystem builds the constraint system for one instance.
func stressFactorSystem(w int, n uint64) []sym.Expr {
	a := sym.NewVar("a", w)
	b := sym.NewVar("b", w)
	one := sym.NewConst(1, w)
	prod := sym.NewBin(sym.OpMul, sym.NewZExt(a, 2*w), sym.NewZExt(b, 2*w))
	return []sym.Expr{
		sym.NewBin(sym.OpEq, prod, sym.NewConst(n, 2*w)),
		sym.NewBin(sym.OpUlt, one, a),
		sym.NewBin(sym.OpUlt, one, b),
		sym.NewBin(sym.OpUle, a, b),
	}
}

// runStressFresh decides every instance with one fresh Solve of the
// whole system (the default -solver=fresh discipline). Returns the
// conclusive verdict count and the verdicts.
func runStressFresh(t testing.TB, suite []stressInstance) (int, []Status) {
	solved := 0
	verdicts := make([]Status, len(suite))
	for i, ins := range suite {
		r, err := SolveContext(context.Background(), stressFactorSystem(ins.w, ins.n), Options{MaxConflicts: ins.budget})
		if err != nil {
			t.Fatalf("%s: %v", ins.name, err)
		}
		verdicts[i] = r.Status
		if r.Status == StatusSat || r.Status == StatusUnsat {
			solved++
			checkStressVerdict(t, ins, r)
		}
	}
	return solved, verdicts
}

// runStressIncremental decides every instance through a fresh Session
// each (the -solver=incremental discipline: one persistent instance per
// system, default configuration). Returns conclusive verdict count and
// the verdicts.
func runStressIncremental(t testing.TB, suite []stressInstance) (int, []Status) {
	solved := 0
	verdicts := make([]Status, len(suite))
	for i, ins := range suite {
		cs := stressFactorSystem(ins.w, ins.n)
		sess := NewSession(context.Background(), SessionOptions{
			Options: Options{MaxConflicts: ins.budget},
		})
		sess.Assert(cs[1:]...)
		r, err := sess.Check(cs[0])
		if err != nil {
			t.Fatalf("%s: %v", ins.name, err)
		}
		verdicts[i] = r.Status
		if r.Status == StatusSat || r.Status == StatusUnsat {
			solved++
			checkStressVerdict(t, ins, r)
		}
	}
	return solved, verdicts
}

func checkStressVerdict(t testing.TB, ins stressInstance, r Result) {
	wantStatus := StatusUnsat
	if ins.wantSat {
		wantStatus = StatusSat
	}
	if r.Status != wantStatus {
		t.Fatalf("%s: verdict %v, want %v", ins.name, r.Status, wantStatus)
	}
	if r.Status == StatusSat {
		for j, c := range stressFactorSystem(ins.w, ins.n) {
			if sym.Eval(c, r.Model) != 1 {
				t.Fatalf("%s: model violates constraint %d", ins.name, j)
			}
		}
	}
}

// TestStressSuiteConsistency runs the suite fresh and incremental and
// checks that conclusive verdicts agree and that fresh solving decides
// every instance within the suite budgets.
func TestStressSuiteConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite in -short mode")
	}
	suite := stressSuite()
	freshSolved, freshV := runStressFresh(t, suite)
	_, incV := runStressIncremental(t, suite)
	for i := range suite {
		fConc := freshV[i] == StatusSat || freshV[i] == StatusUnsat
		iConc := incV[i] == StatusSat || incV[i] == StatusUnsat
		if fConc && iConc && freshV[i] != incV[i] {
			t.Fatalf("%s: fresh %v, incremental %v", suite[i].name, freshV[i], incV[i])
		}
	}
	if freshSolved != len(suite) {
		t.Fatalf("fresh solved %d of %d stress instances (verdicts %v)", freshSolved, len(suite), freshV)
	}
}

// BenchmarkStressIncremental times the budget-bound stress suite under
// incremental sessions; the solved count is reported alongside wall
// time.
func BenchmarkStressIncremental(b *testing.B) {
	suite := stressSuite()
	solved := 0
	for i := 0; i < b.N; i++ {
		solved, _ = runStressIncremental(b, suite)
	}
	b.ReportMetric(float64(solved), "solved")
}
