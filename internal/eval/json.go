package eval

import (
	"encoding/json"
	"fmt"

	"repro/internal/bombs"
	"repro/internal/core"
)

// The JSON rendering of a Table II run: the grid plus the aggregate
// engine statistics. It is the machine-readable counterpart of
// RenderTableII, consumed by evaltable -json, CI checks, and clients of
// the concolicd batch workflow.

// CellJSON is one bomb x tool cell.
type CellJSON struct {
	Outcome    string `json:"outcome"` // reported label (after overrides)
	Mechanical string `json:"mechanical,omitempty"`
	Paper      string `json:"paper,omitempty"`
	Match      bool   `json:"match"`
	Overridden bool   `json:"overridden,omitempty"`
	Note       string `json:"note,omitempty"`
	Verdict    string `json:"verdict"`
	Rounds     int    `json:"rounds"`
	// CoverageNewEdgesPerRound is the per-round coverage novelty profile
	// (new edges each round contributed, in merge order).
	CoverageNewEdgesPerRound []int `json:"coverage_new_edges_per_round,omitempty"`
}

// RowJSON is one bomb row of the grid.
type RowJSON struct {
	Bomb        string `json:"bomb"`
	Challenge   string `json:"challenge"`
	Description string `json:"description"`
	// Category is the corpus the bomb belongs to (accuracy, scalability,
	// extended, ...); Taxonomy is the TIFS-2018 taxonomy slug carried by
	// extended bombs only.
	Category string              `json:"category"`
	Taxonomy string              `json:"taxonomy,omitempty"`
	Cells    map[string]CellJSON `json:"cells"` // tool -> cell
}

// AggStatsJSON is the engine work profile over every cell: the cell
// count, the cells' Stats folded by core.Stats.Add (counters summed,
// peaks maxed), and the two lookup ratios of the totals.
type AggStatsJSON struct {
	Cells int
	core.Stats
	CacheHitRate  float64
	InternHitRate float64
}

type aggRates struct {
	CacheHitRate  float64 `json:"cache_hit_rate"`
	InternHitRate float64 `json:"intern_hit_rate"`
}

// MarshalJSON flattens the cell count, the counters and the ratios into
// one object.
func (a AggStatsJSON) MarshalJSON() ([]byte, error) {
	stats, _ := a.Stats.MarshalJSON()
	rates, err := json.Marshal(aggRates{a.CacheHitRate, a.InternHitRate})
	b := fmt.Appendf(nil, `{"cells":%d,%s,`, a.Cells, stats[1:len(stats)-1])
	return append(b, rates[1:]...), err
}

// UnmarshalJSON reads the flattened object back.
func (a *AggStatsJSON) UnmarshalJSON(data []byte) error {
	var x struct {
		Cells int `json:"cells"`
		aggRates
	}
	if err := json.Unmarshal(data, &x); err != nil {
		return err
	}
	a.Cells, a.CacheHitRate, a.InternHitRate = x.Cells, x.CacheHitRate, x.InternHitRate
	return a.Stats.UnmarshalJSON(data)
}

// GridJSON is the full machine-readable Table II report.
type GridJSON struct {
	Title string `json:"title,omitempty"`
	// HasPaper mirrors Grid.HasPaper: when false (the extended corpus)
	// the cells carry no paper column and Match counts nothing.
	HasPaper bool           `json:"has_paper"`
	Tools    []string       `json:"tools"`
	Rows     []RowJSON      `json:"rows"`
	Solved   map[string]int `json:"solved"` // tool -> solved cells
	Match    int            `json:"match"`
	Total    int            `json:"total"`
	Stats    AggStatsJSON   `json:"stats"`
}

// ToJSON converts a completed grid into its JSON report form.
func ToJSON(g *Grid) *GridJSON {
	out := &GridJSON{
		Title:    g.Title,
		HasPaper: g.HasPaper,
		Tools:    append([]string(nil), g.Tools...),
		Solved:   make(map[string]int),
	}
	for _, t := range g.Tools {
		out.Solved[t] = 0
	}
	for _, bomb := range g.Rows {
		row := RowJSON{
			Bomb:        bomb.Name,
			Challenge:   bomb.Challenge,
			Description: bomb.Description,
			Category:    string(bomb.Category),
			Taxonomy:    bomb.Taxonomy,
			Cells:       make(map[string]CellJSON, len(g.Tools)),
		}
		for _, tool := range g.Tools {
			c := g.Cell(bomb.Name, tool)
			if c == nil {
				continue
			}
			paper := ""
			if g.HasPaper {
				paper = label(c.Paper)
			}
			row.Cells[tool] = CellJSON{
				Outcome:    label(c.Got),
				Mechanical: label(c.Mechanical),
				Paper:      paper,
				Match:      c.Match,
				Overridden: c.Overridden,
				Note:       c.Note,
				Verdict:    c.Outcome.Verdict.String(),
				Rounds:     c.Outcome.Rounds,
				CoverageNewEdgesPerRound: append([]int(nil),
					c.Outcome.Stats.NewEdgesPerRound...),
			}
			if c.Got == bombs.OK {
				out.Solved[tool]++
			}
			out.Stats.Cells++
			out.Stats.Add(&c.Outcome.Stats)
		}
		out.Rows = append(out.Rows, row)
	}
	out.Stats.CacheHitRate = out.Stats.Stats.CacheHitRate()
	out.Stats.InternHitRate = out.Stats.Stats.InternHitRate()
	out.Match, out.Total = g.Matches()
	return out
}

// MarshalGrid renders the grid report as indented JSON.
func MarshalGrid(g *Grid) ([]byte, error) {
	return json.MarshalIndent(ToJSON(g), "", "  ")
}
