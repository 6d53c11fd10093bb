package sym

import (
	"strings"
	"testing"
)

// FuzzInternEval is the interning equivalence fuzzer: for arbitrary raw
// expression systems, the canonical (hash-consed) build must be
// observationally identical to the unshared struct-literal build — same
// Eval under concrete environments, same CanonicalKey/StableKey, same
// SMT-LIB printout, and the same HasFloat/HasEnvVar/HasITE answers from
// the interned nodes' flags as from a walk of the raw tree (HasITE is
// also checked against a plain DAG walk). This is the property that lets
// every layer intern freely without risking verdict or golden-output
// drift.
//
// Eval and SMTLib walk trees (exponential on shared DAGs), so those
// comparisons are gated on a tree-size bound; key and digest
// comparisons run on everything, including 2^60-node doubling chains.
func FuzzInternEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{2, 5, 0, 0, 5, 1, 0, 0})
	f.Add([]byte{6, 0, 0, 60, 5, 0, 0, 0}) // 2^60-node shared tree
	f.Add([]byte{3, 2, 0, 9, 5, 1, 0, 0})  // unary chain
	f.Add([]byte{4, 0, 1, 2, 5, 3, 0, 0})  // ITE
	f.Add([]byte{0, 2, 0, 7, 2, 13, 1, 1, 5, 1, 0, 0})
	// Two duplicate-copy ITEs under one Bin: caught StableKey being
	// sensitive to the input's sharing pattern before it hash-consed
	// locally.
	f.Add([]byte("C000C000A012"))
	// An env variable as the second operand of a float comparison, that
	// comparison as the second operand of an integer add, and an add of
	// the env variable alone: both flags must reach every root.
	f.Add([]byte{1, 2, 3, 0, 2, 24, 0, 1, 2, 0, 0, 2, 2, 0, 1, 1,
		5, 2, 0, 0, 5, 3, 0, 0, 5, 4, 0, 0, 5, 0, 0, 0})
	// argv1!1 at 16 bits, at 32 bits, and at 16 bits again as a second
	// raw copy: the raw walk meets the 16-bit copy last, the interned
	// walk has already seen it. Caught SMTLib declaring the width of the
	// last variable node visited.
	f.Add([]byte{1, 1, 2, 0, 1, 1, 3, 0, 1, 1, 2, 0, 2, 0, 1, 2, 5, 4, 0, 0, 5, 3, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		raw := buildSystem(data, 0)
		shared := make([]Expr, len(raw))
		for i, e := range raw {
			shared[i] = Intern(e)
			if !Interned(shared[i]) {
				t.Fatalf("constraint %d not interned (arena full mid-fuzz?)", i)
			}
			if Digest(raw[i]) != Digest(shared[i]) {
				t.Errorf("constraint %d: digest differs raw vs interned", i)
			}
			if TreeNodes(raw[i]) != TreeNodes(shared[i]) {
				t.Errorf("constraint %d: tree count differs raw vs interned", i)
			}
			// Interned nodes answer from their flags, raw ones by a walk.
			if HasFloat(raw[i]) != HasFloat(shared[i]) {
				t.Errorf("constraint %d: HasFloat %v (raw) vs %v (interned)", i, HasFloat(raw[i]), HasFloat(shared[i]))
			}
			if HasEnvVar(raw[i]) != HasEnvVar(shared[i]) {
				t.Errorf("constraint %d: HasEnvVar %v (raw) vs %v (interned)", i, HasEnvVar(raw[i]), HasEnvVar(shared[i]))
			}
			if ite := iteWalk(raw[i], map[Expr]bool{}); HasITE(raw[i]) != ite || HasITE(shared[i]) != ite {
				t.Errorf("constraint %d: HasITE %v (raw) vs %v (interned), walk finds %v", i, HasITE(raw[i]), HasITE(shared[i]), ite)
			}
		}
		if HasFloat(raw...) != HasFloat(shared...) || HasEnvVar(raw...) != HasEnvVar(shared...) || HasITE(raw...) != HasITE(shared...) {
			t.Error("system flags differ between raw and interned builds")
		}
		envVar := false
		for _, n := range Vars(raw...) {
			envVar = envVar || strings.HasPrefix(n, EnvVarPrefix)
		}
		if HasEnvVar(shared...) != envVar {
			t.Errorf("HasEnvVar %v, but the variables are %v", HasEnvVar(shared...), Vars(raw...))
		}
		if k1, k2 := CanonicalKey(raw), CanonicalKey(shared); k1 != k2 {
			t.Error("CanonicalKey differs between raw and interned builds")
		}
		if s1, s2 := StableKey(raw), StableKey(shared); s1 != s2 {
			t.Error("StableKey differs between raw and interned builds")
		}

		var total uint64
		for _, e := range raw {
			total = satAdd(total, TreeNodes(e))
		}
		if total > 1<<15 {
			return // tree walks below would blow up on shared DAGs
		}
		envs := []map[string]uint64{
			nil,
			{"seed": 0xa5, "argv1!0": 42, "argv1!1": 7, "env!time": 1_700_000_000, "env!pid": 1234},
		}
		for i := range raw {
			for _, env := range envs {
				if v1, v2 := Eval(raw[i], env), Eval(shared[i], env); v1 != v2 {
					t.Errorf("constraint %d: Eval %d (raw) vs %d (interned)", i, v1, v2)
				}
			}
			if raw[i].String() != shared[i].String() {
				t.Errorf("constraint %d: String differs raw vs interned", i)
			}
		}
		if p1, p2 := SMTLib(raw), SMTLib(shared); p1 != p2 {
			t.Error("SMT-LIB printout differs between raw and interned builds")
		}
	})
}

// iteWalk reports whether an ITE node occurs in e, by a memoized walk
// that ignores node flags.
func iteWalk(e Expr, seen map[Expr]bool) bool {
	if seen[e] {
		return false
	}
	seen[e] = true
	switch t := e.(type) {
	case *ITE:
		return true
	case *Bin:
		return iteWalk(t.A, seen) || iteWalk(t.B, seen)
	case *Un:
		return iteWalk(t.A, seen)
	}
	return false
}
