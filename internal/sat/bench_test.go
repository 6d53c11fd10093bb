package sat

import "testing"

// pigeonhole builds the unsat PHP(n, n-1) instance.
func pigeonhole(n int) *Solver {
	s := New()
	m := n - 1
	p := make([][]int, n)
	for i := range p {
		p[i] = make([]int, m)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < n; i++ {
		lits := make([]Lit, m)
		for j := 0; j < m; j++ {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < m; j++ {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				s.AddClause(MkLit(p[a][j], true), MkLit(p[b][j], true))
			}
		}
	}
	return s
}

func BenchmarkPigeonhole7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if st := pigeonhole(7).Solve(0); st != Unsat {
			b.Fatalf("status %v", st)
		}
	}
}

func BenchmarkPropagationChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		const n = 2000
		vars := make([]int, n)
		for j := range vars {
			vars[j] = s.NewVar()
		}
		for j := 0; j+1 < n; j++ {
			s.AddClause(MkLit(vars[j], true), MkLit(vars[j+1], false))
		}
		s.AddClause(MkLit(vars[0], false))
		if st := s.Solve(0); st != Sat {
			b.Fatalf("status %v", st)
		}
	}
}
