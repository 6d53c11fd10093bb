package solver

import (
	"reflect"
	"sync"
	"testing"
)

// TestSolveConcurrentMatchesSequential runs the stress suite through
// Solve from several goroutines at once, each in its own rotation of the
// suite order, so the pooled SAT solvers pass between goroutines and
// between instances of different sizes. Every result must equal the one
// from a sequential run: solver reuse may not move a verdict, a model or
// a conflict count.
func TestSolveConcurrentMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite in -short mode")
	}
	suite := stressSuite()
	solve := func(ins stressInstance) Result {
		r, err := Solve(stressFactorSystem(ins.w, ins.n), Options{MaxConflicts: ins.budget})
		if err != nil {
			t.Errorf("%s: %v", ins.name, err)
		}
		return r
	}
	want := make([]Result, len(suite))
	for i, ins := range suite {
		want[i] = solve(ins)
	}

	const goroutines = 3
	got := make([][]Result, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]Result, len(suite))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range suite {
				i := (g + k) % len(suite)
				got[g][i] = solve(suite[i])
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, r := range got[g] {
			if !reflect.DeepEqual(r, want[i]) {
				t.Errorf("goroutine %d, %s: %v/%d conflicts/%v, sequential %v/%d conflicts/%v",
					g, suite[i].name, r.Status, r.Conflicts, r.Model, want[i].Status, want[i].Conflicts, want[i].Model)
			}
		}
	}
}
