package core

import (
	"reflect"
	"testing"

	"repro/internal/bombs"
	"repro/internal/cover"
	"repro/internal/gos"
	"repro/internal/mutate"
	"repro/internal/target"
	"repro/internal/trace"
)

// sameCover reports whether got ∪ FromTrace(prefix) equals want, the
// FromTrace of a recorded run whose first len(prefix.Entries) entries
// are prefix. Set equality without iterating a Set: merge got and the
// prefix into one tracker, then want must add nothing and have the
// tracker's size.
func sameCover(got *cover.Set, prefix *trace.Trace, want *cover.Set, leaders map[uint64]bool) bool {
	u := cover.NewTracker()
	u.Merge(got)
	u.Merge(cover.FromTrace(prefix, leaders))
	newEdges, newBlocks := u.Merge(want)
	wantEdges, wantBlocks := want.Len()
	return newEdges == 0 && newBlocks == 0 && u.Edges() == wantEdges && u.Blocks() == wantBlocks
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
// of mutants of the benign one: coverage-only from scratch, coverage-only
// resumed from every snapshot of the input's own recorded run, and — as
// breed runs a mutant — coverage-only resumed from the benign run's
// replay plan. Each must report the recorded run's coverage once the
// skipped prefix is added back, and the same fault and web flags, stop
// reason, step count, stdout and watched hits.
func TestCoverageOnlyMatchesTrace(t *testing.T) {
	var forks, threads, excPrefixes, resumes int
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

		pm, pres, _, _, _, err := en.runConcrete(b.Benign, nil, true)
		if err != nil {
			t.Fatalf("%s: benign run: %v", b.Name, err)
		}
		parentPlan := makePlan(b.Benign, pres, pm.Snapshots(), nil)

		for _, in := range inputs {
			name := b.Name + "/" + in.Argv1
			m, full, _, _, _, err := en.runConcrete(in, nil, true)
			if err != nil {
				t.Fatalf("%s: recorded run: %v", name, err)
			}
			want := cover.FromTrace(full.Trace, en.leaders)
			check := func(how string, got *gos.Result, prefixLen int) {
				t.Helper()
				prefix := &trace.Trace{Entries: full.Trace.Entries[:prefixLen]}
				if got.Trace != nil {
					t.Errorf("%s %s: coverage-only run recorded a trace", name, how)
				}
				if !sameCover(got.Cover, prefix, want, en.leaders) {
					ge, gb := got.Cover.Len()
					we, wb := want.Len()
					t.Errorf("%s %s (prefix %d): cover %d edges/%d blocks, want %d/%d with the prefix",
						name, how, prefixLen, ge, gb, we, wb)
				}
				if got.Faulted != (faultIndex(full.Trace) >= 0) || got.Web != traceHasWeb(full.Trace) {
					t.Errorf("%s %s: faulted/web %v/%v, trace says %v/%v", name, how,
						got.Faulted, got.Web, faultIndex(full.Trace) >= 0, traceHasWeb(full.Trace))
				}
				if got.Reason != full.Reason || got.Steps != full.Steps || got.Stdout != full.Stdout ||
					!reflect.DeepEqual(got.Watched, full.Watched) {
					t.Errorf("%s %s: %s/%d steps/%q/%v, want %s/%d steps/%q/%v", name, how,
						got.Reason, got.Steps, got.Stdout, got.Watched,
						full.Reason, full.Steps, full.Stdout, full.Watched)
				}
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

			_, fresh, _, resumed, _, err := en.runConcrete(in, nil, false)
			if err != nil || resumed {
				t.Fatalf("%s: fresh coverage-only run: resumed %v, %v", name, resumed, err)
			}
			check("fresh", fresh, 0)

			cfg := in.Config()
			cfg.Cover, cfg.CoverLeaders = true, en.leaders
			cfg.MaxSteps = en.caps.StepBudget
			cfg.WatchAddrs = []uint64{en.target}
			for _, s := range m.Snapshots() {
				rm, err := s.Resume(cfg, nil)
				if err != nil {
					t.Fatalf("%s: resume at step %d: %v", name, s.Steps, err)
				}
				check("resumed", rm.Run(), s.TraceLen)
				resumes++
				if faultIndex(&trace.Trace{Entries: full.Trace.Entries[:s.TraceLen]}) >= 0 {
					excPrefixes++
				}
			}

			_, viaPlan, prefixLen, _, _, err := en.runConcrete(in, parentPlan, false)
			if err != nil {
				t.Fatalf("%s: resume from the benign plan: %v", name, err)
			}
			check("via plan", viaPlan, prefixLen)
		}
	}
	if forks == 0 || threads == 0 || excPrefixes == 0 {
		t.Errorf("corpus misses a case: %d forking runs, %d threaded runs, %d resumes past an exception",
			forks, threads, excPrefixes)
	}
	t.Logf("%d resumes, %d past an exception; %d forking and %d threaded runs",
		resumes, excPrefixes, forks, threads)
}
