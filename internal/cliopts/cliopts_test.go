package cliopts

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tools"
)

func parse(t *testing.T, argv ...string) *Options {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("parse %v: %v", argv, err)
	}
	return o
}

func TestResolveDefaults(t *testing.T) {
	res, err := parse(t).Resolve(FlagDialect)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if res.StrategySet || res.Fuzz || res.CoverGoal != 0 {
		t.Errorf("unexpected defaults: %+v", res)
	}
	// The engine has one solver mode and runs every round from the entry
	// point, so the cluster has neither a -solver nor a -checkpoint flag.
	for _, argv := range [][]string{{"-solver", "fresh"}, {"-checkpoint", "off"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse(argv); err == nil || !strings.Contains(err.Error(), argv[0]) {
			t.Errorf("%s parsed: %v", argv[0], err)
		}
	}
}

// TestApplyKeepsProfileDefaults pins the overlay contract: unset cluster
// fields must not clobber what a tool profile chose.
func TestApplyKeepsProfileDefaults(t *testing.T) {
	p, ok := tools.ByName("reference")
	if !ok {
		t.Fatal("no reference profile")
	}
	wantSearch := p.Caps.Search
	res, err := parse(t, "-workers", "2").Resolve(FlagDialect)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	res.Apply(&p.Caps)
	if p.Caps.Workers != 2 {
		t.Errorf("explicit fields not applied: %+v", p.Caps)
	}
	if p.Caps.Search != wantSearch {
		t.Errorf("profile search default clobbered: %v -> %v", wantSearch, p.Caps.Search)
	}

	res2, err := parse(t, "-strategy", "dfs").Resolve(FlagDialect)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	res2.Apply(&p.Caps)
	if p.Caps.Search != core.SearchDFS {
		t.Errorf("explicit strategy not applied: %v", p.Caps.Search)
	}
}

func TestCheckCrossFieldRules(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want string // substring of the error under FlagDialect; "" = valid
	}{
		{"defaults", Options{}, ""},
		{"negative workers", Options{Workers: -1}, "-workers must be non-negative"},
		{"bad strategy", Options{Strategy: "coverge"}, `unknown search strategy "coverge"`},
		{"fuzz without coverage", Options{Fuzz: true}, "-fuzz requires -strategy=coverage"},
		{"fuzz ok", Options{Fuzz: true, Strategy: "coverage"}, ""},
		{"goal too big", Options{CoverGoal: 1.5}, "-cover-goal must be in (0, 1]"},
		{"goal negative", Options{CoverGoal: -0.1}, "-cover-goal must be in (0, 1]"},
		{"goal ok", Options{CoverGoal: 0.5}, ""},
	}
	for _, c := range cases {
		err := Check(c.o, FlagDialect)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestWireDialect pins the job-API rendering of the same rules.
func TestWireDialect(t *testing.T) {
	err := Check(Options{Fuzz: true}, WireDialect)
	if err == nil || err.Error() != "fuzz requires strategy=coverage" {
		t.Errorf("fuzz error = %v", err)
	}
	err = Check(Options{CoverGoal: 2}, WireDialect)
	if err == nil || !strings.HasPrefix(err.Error(), "cover_goal must be in (0, 1]") {
		t.Errorf("cover_goal error = %v", err)
	}
}
