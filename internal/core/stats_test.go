package core

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// filledStats sets every counter to a distinct nonzero value.
func filledStats() Stats {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == durationType:
			f.SetInt(int64(time.Duration(i+1) * time.Millisecond))
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case f.CanInt():
			f.SetInt(int64(i + 1))
		default:
			f.Set(reflect.ValueOf([]int{i, i + 1}))
		}
	}
	return s
}

func TestStatsJSONRoundTrip(t *testing.T) {
	want := filledStats()
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	var keys map[string]json.RawMessage
	json.Unmarshal(raw, &keys)
	if len(keys) != len(StatFields()) {
		t.Errorf("%d JSON keys for %d fields: %s", len(keys), len(StatFields()), raw)
	}
	if !strings.Contains(string(raw), `"wall_ms":8,`) {
		t.Errorf("wall time not in milliseconds: %s", raw)
	}

	// omitempty fields vanish when zero; everything else stays.
	raw, _ = json.Marshal(Stats{})
	if strings.Contains(string(raw), `"workers"`) || strings.Contains(string(raw), `"new_edges_per_round"`) ||
		!strings.Contains(string(raw), `"checkpoints_taken":0`) {
		t.Errorf("zero Stats JSON: %s", raw)
	}
}

func TestStatsAddMergeKinds(t *testing.T) {
	a, b := filledStats(), filledStats()
	b.PeakFrontier, b.ArenaNodes = 1000, 1
	sum := a
	sum.Add(&b)
	if sum.Rounds != 2*a.Rounds || sum.CacheHits != 2*a.CacheHits || sum.WallTime != 2*a.WallTime ||
		sum.FuzzSeedsPromoted != 2*a.FuzzSeedsPromoted {
		t.Errorf("sum fields did not add: %+v", sum)
	}
	if sum.PeakFrontier != 1000 || sum.ArenaNodes != a.ArenaNodes {
		t.Errorf("max fields: peak %d arena %d", sum.PeakFrontier, sum.ArenaNodes)
	}
	if sum.Workers != a.Workers || !reflect.DeepEqual(sum.NewEdgesPerRound, a.NewEdgesPerRound) {
		t.Errorf("per-run fields merged: workers %d edges %v", sum.Workers, sum.NewEdgesPerRound)
	}
	if n := testing.AllocsPerRun(100, func() { sum.Add(&b) }); n != 0 {
		t.Errorf("Add allocates %v times per call", n)
	}
}

// TestDesignCounterTable keeps DESIGN.md §19 and the Stats tags naming
// the same counters, in the same order, with the same kind, series and
// help.
func TestDesignCounterTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 19. Engine counters")
	if !ok {
		t.Fatal("DESIGN.md lacks the engine counter section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cols := strings.Split(strings.Trim(line, "|"), " | ")
		for i := range cols {
			cols[i] = strings.Trim(strings.TrimSpace(cols[i]), "`")
		}
		rows = append(rows, cols)
	}
	fields := StatFields()
	if len(rows) != len(fields) {
		t.Fatalf("DESIGN.md table has %d counter rows, core.Stats has %d fields", len(rows), len(fields))
	}
	for i, f := range fields {
		prom := f.Prom
		if prom == "" {
			prom = "—"
		}
		want := []string{f.Name, f.Merge, rows[i][2], prom, f.Help}
		if !reflect.DeepEqual(rows[i], want) {
			t.Errorf("DESIGN.md row %d = %q, want %q", i+1, rows[i], want)
		}
	}
}
