package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/target"
)

// goldenPath is the golden file, relative to the checkout root.
const goldenPath = "bench/testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// expect is one cell's golden: its label ("-" for correctly unreachable)
// and, for coverage-fuzz, the edges it covers.
type expect struct {
	Label string `json:"label"`
	Edges int    `json:"edges,omitempty"`
}

// goldens maps workload -> cell -> expectation. The solver ladder has no
// entry: each of its instances must be solved.
type goldens map[string]map[string]expect

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decode %s: %w", goldenPath, err)
	}
	return g, nil
}

// labelOf is the cell label the engine produced, as the service reports
// it: eval.Classify without the documented tool overrides.
func labelOf(out *core.Outcome) string {
	if l := string(eval.Classify(out)); l != "" {
		return l
	}
	return "-"
}

// detonates replays a solving input concretely.
func detonates(b *bombs.Bomb, in target.Input) bool {
	res, err := b.Run(in, bombs.WithMaxSteps(5_000_000))
	return err == nil && bombs.Triggered(res)
}

// check returns why an op's result is wrong, or "" when it is right. A
// label may differ from the golden only by becoming a replay-verified
// solve; a solving input must detonate; coverage must not fall.
func (g goldens) check(w *workload, o op, label string, solved *target.Input, edges int) string {
	if solved != nil && !detonates(o.bomb, *solved) {
		return "solving input does not detonate on replay"
	}
	if w.golden == "" {
		if solved == nil {
			return fmt.Sprintf("not solved (label %s)", label)
		}
		return ""
	}
	want, ok := g[w.golden][o.cell]
	if !ok {
		return "no golden entry"
	}
	if label != want.Label && solved == nil {
		return fmt.Sprintf("label %s, golden %s", label, want.Label)
	}
	if edges < want.Edges {
		return fmt.Sprintf("covered %d edges, golden %d", edges, want.Edges)
	}
	return ""
}

// writeGoldens runs each workload that owns a golden section once,
// in-process, and rewrites the golden file.
func writeGoldens() error {
	g := goldens{}
	for _, w := range workloads {
		if w.golden != w.name {
			continue
		}
		g[w.name] = map[string]expect{}
		for _, o := range w.ops() {
			out := eval.RunCell(o.bomb, o.profile, o.paperIdx).Outcome
			e := expect{Label: labelOf(out)}
			if w.name == "coverage-fuzz" {
				e.Edges = out.Stats.CoveredEdges
			}
			g[w.name][o.cell] = e
			fmt.Fprintf(os.Stderr, "%s %s: %s\n", w.name, o.cell, e.Label)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
