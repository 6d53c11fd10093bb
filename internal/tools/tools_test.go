package tools

import (
	"testing"

	"repro/internal/bombs"
	"repro/internal/symexec"
)

func TestTableIIProfiles(t *testing.T) {
	ps := TableII()
	if len(ps) != 4 {
		t.Fatalf("TableII profiles = %d, want 4", len(ps))
	}
	want := []string{"BAP", "Triton", "Angr", "Angr-NoLib"}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Errorf("profile %d = %s, want %s", i, p.Name(), want[i])
		}
	}
}

func TestByNameCoversEveryProfile(t *testing.T) {
	want := map[string]string{
		"bap": "BAP", "triton": "Triton", "angr": "Angr",
		"angr-nolib": "Angr-NoLib", "reference": "Reference",
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %d entries", names, len(want))
	}
	for _, n := range names {
		p, ok := ByName(n)
		if !ok {
			t.Fatalf("ByName(%q) missing", n)
		}
		if p.Name() != want[n] {
			t.Errorf("ByName(%q).Name() = %s, want %s", n, p.Name(), want[n])
		}
	}
	if _, ok := ByName("klee"); ok {
		t.Error("ByName accepted an unknown tool")
	}
}

// TestLookupError pins the unknown-tool text the CLIs and the job API
// all report.
func TestLookupError(t *testing.T) {
	if p, err := Lookup("angr"); err != nil || p.Name() != "Angr" {
		t.Errorf("Lookup(angr) = %s, %v", p.Name(), err)
	}
	_, err := Lookup("klee")
	want := `unknown tool "klee" (choose from bap, triton, angr, angr-nolib, reference)`
	if err == nil || err.Error() != want {
		t.Errorf("Lookup(klee) error = %v, want %s", err, want)
	}
}

func TestOverridesReferenceRealBombs(t *testing.T) {
	for _, p := range TableII() {
		for name, ov := range p.Overrides {
			if _, ok := bombs.ByName(name); !ok {
				t.Errorf("%s override references unknown bomb %q", p.Name(), name)
			}
			if ov.Note == "" {
				t.Errorf("%s/%s override lacks a justification note", p.Name(), name)
			}
			if ov.Outcome == "" {
				t.Errorf("%s/%s override lacks an outcome", p.Name(), name)
			}
		}
	}
}

func TestProfileCapabilityShape(t *testing.T) {
	bap := BAP()
	if !bap.Caps.Sym.Lift.NoFloat || !bap.Caps.Sym.Lift.NoPushPop {
		t.Error("BAP must gate FP and push/pop lifting")
	}
	if bap.Caps.GrowArgv {
		t.Error("BAP must not grow inputs")
	}
	tr := Triton()
	if tr.Caps.Sym.Spec.ArgvNUL {
		t.Error("Triton models a fixed-length argv")
	}
	if tr.Caps.Sym.Exc != symexec.ExcEs1 {
		t.Error("Triton cannot trace exception dispatch")
	}
	an := Angr()
	if an.Caps.WebSyscall {
		t.Error("Angr emulation must crash on network IO")
	}
	if an.Caps.Sym.Mem != symexec.MemOneLevel {
		t.Error("Angr models one-level symbolic memory")
	}
	nl := AngrNoLib()
	if !nl.Caps.Sym.Spec.TrackProcs {
		t.Error("Angr-NoLib models fork")
	}
	if nl.Caps.Sym.Externals["sha1"] != symexec.ExtUnconstrained {
		t.Error("Angr-NoLib summarizes unknown externals")
	}
	ref := Reference()
	if len(ref.Overrides) != 0 {
		t.Error("the reference profile must not need overrides")
	}
	if ref.Caps.Sym.Mem != symexec.MemFull || ref.Caps.Sym.Jump != symexec.JumpEnum {
		t.Error("reference profile must have full memory/jump models")
	}
}

func TestFastBudgetsReducesLimits(t *testing.T) {
	slow := Reference()
	fast := FastBudgets(Reference())
	if fast.Caps.SolverTimeout >= slow.Caps.SolverTimeout {
		t.Error("fast budgets should reduce the solver timeout")
	}
	if fast.Caps.TotalBudget >= slow.Caps.TotalBudget {
		t.Error("fast budgets should reduce the task budget")
	}
}
