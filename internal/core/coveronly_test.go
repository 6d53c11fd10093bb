package core

import (
	"reflect"
	"testing"

	"repro/internal/bombs"
	"repro/internal/cover"
	"repro/internal/mutate"
	"repro/internal/target"
	"repro/internal/trace"
)

// sameCover reports whether got and want hold the same edges and
// blocks.
func sameCover(got, want *cover.Set) bool {
	return reflect.DeepEqual(got.Edges(), want.Edges()) && reflect.DeepEqual(got.Blocks(), want.Blocks())
}

func traceHasWeb(tr *trace.Trace) bool {
	for i := range tr.Entries {
		if s := tr.Entries[i].Sys; s != nil && s.Num == trace.SysWebGet {
			return true
		}
	}
	return false
}

// TestCoverageOnlyMatchesTrace is the differential test of the VM's
// coverage-only mode against cover.FromTrace over a recorded trace. Every
// non-stress bomb runs on its benign and trigger inputs plus a fixed set
// of mutants of the benign one, once recording and once coverage-only,
// as breed runs a mutant. The coverage-only run must report the recorded
// run's coverage, the same fault and web flags, stop reason, step
// count, stdout and watched hits, and no trace.
func TestCoverageOnlyMatchesTrace(t *testing.T) {
	var forks, threads, faults int
	for _, b := range bombs.All() {
		if b.Category == bombs.Stress {
			continue
		}
		en := New(b.Image(), b.BombAddr(), Capabilities{})
		inputs := []target.Input{b.Benign, b.Trigger}
		mu := mutate.New(int64(len(b.Name)))
		for i := 0; i < 6; i++ {
			in := b.Benign
			in.Argv1 = mu.Mutate(b.Benign.Argv1, []string{b.Trigger.Argv1}, len(b.Benign.Argv1)+4)
			inputs = append(inputs, in)
		}

		tr := &trace.Trace{} // reused: each recorded run truncates it
		for _, in := range inputs {
			name := b.Name + "/" + in.Argv1
			_, full, err := en.runConcrete(in, tr)
			if err != nil {
				t.Fatalf("%s: recorded run: %v", name, err)
			}
			_, got, err := en.runConcrete(in, nil)
			if err != nil {
				t.Fatalf("%s: coverage-only run: %v", name, err)
			}
			want := cover.FromTrace(full.Trace, en.prog.Leader)
			if got.Trace != nil {
				t.Errorf("%s: coverage-only run recorded a trace", name)
			}
			if !sameCover(got.Cover, want) {
				ge, gb := got.Cover.Len()
				we, wb := want.Len()
				t.Errorf("%s: cover %d edges/%d blocks, want %d/%d", name, ge, gb, we, wb)
			}
			if got.Faulted != (faultIndex(full.Trace) >= 0) || got.Web != traceHasWeb(full.Trace) {
				t.Errorf("%s: faulted/web %v/%v, trace says %v/%v", name,
					got.Faulted, got.Web, faultIndex(full.Trace) >= 0, traceHasWeb(full.Trace))
			}
			if got.Reason != full.Reason || got.Steps != full.Steps || got.Stdout != full.Stdout ||
				!reflect.DeepEqual(got.Watched, full.Watched) {
				t.Errorf("%s: %s/%d steps/%q/%v, want %s/%d steps/%q/%v", name,
					got.Reason, got.Steps, got.Stdout, got.Watched,
					full.Reason, full.Steps, full.Stdout, full.Watched)
			}
			if faultIndex(full.Trace) >= 0 {
				faults++
			}
			for i := range full.Trace.Entries {
				e := &full.Trace.Entries[i]
				if e.PID > 1 {
					forks++
					break
				}
				if e.TID > 1 {
					threads++
					break
				}
			}
		}
	}
	if forks == 0 || threads == 0 || faults == 0 {
		t.Errorf("corpus misses a case: %d forking runs, %d threaded runs, %d faulting runs",
			forks, threads, faults)
	}
	t.Logf("%d forking, %d threaded and %d faulting runs", forks, threads, faults)
}
