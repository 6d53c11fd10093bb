package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// Stats reports the engine's work profile for one Explore call. Verdict
// fields of Outcome are deterministic for a fixed seed and worker count;
// Stats values that depend on wall-clock time or on duplicate work
// suppressed between parallel rounds (cache counters, wall time) are
// informational and may vary run to run.
//
// Stats is the only declaration of the engine counters. Each field's
// tags are its schema (see StatField), and every sink is rendered from
// them: Add, MarshalJSON/UnmarshalJSON (the concolicd wire, the job
// journal and evaltable -json), the concolicd /metrics exposition and
// concolic -stats. Adding a counter is adding one tagged field; the
// counter table in DESIGN.md lists the same names.
type Stats struct {
	Rounds         int           `json:"rounds" merge:"sum" prom:"concolicd_engine_rounds_total" help:"Merged exploration rounds."`
	SolverQueries  int           `json:"solver_queries" merge:"sum" prom:"concolicd_solver_queries_total" help:"Negation queries issued by merged rounds."`
	CacheHits      uint64        `json:"cache_hits" merge:"sum" prom:"concolicd_solver_cache_hits_total" help:"Solver query cache hits."`
	CacheMisses    uint64        `json:"cache_misses" merge:"sum" prom:"concolicd_solver_cache_misses_total" help:"Solver query cache misses."`
	CacheEvictions uint64        `json:"cache_evictions" merge:"sum" help:"Solver query cache evictions."`
	PeakFrontier   int           `json:"peak_frontier" merge:"max" help:"Largest number of pending candidates seen at a batch boundary."`
	Workers        int           `json:"workers,omitempty" merge:"run" help:"Resolved engine worker count."`
	WallTime       time.Duration `json:"wall_ms" merge:"sum" help:"Duration of the Explore call, in milliseconds."`

	// Hash-consing arena traffic during the call (deltas, not process
	// totals); ArenaNodes is the process-wide population after it.
	InternHits   uint64 `json:"intern_hits" merge:"sum" help:"Arena lookups answered by an existing node."`
	InternMisses uint64 `json:"intern_misses" merge:"sum" help:"Arena lookups that allocated a new node."`
	ArenaNodes   uint64 `json:"arena_nodes" merge:"max" help:"Distinct interned terms alive in the process arena after the call."`

	// Guest memory sharing (DESIGN.md §12).
	CheckpointResumes int    `json:"checkpoint_resumes,omitempty" merge:"sum" help:"Always 0: kept for the repository benchmark, which still reads it; rounds always start from the program entry point."`
	PagesCOWFaulted   uint64 `json:"pages_cow_faulted" merge:"sum" prom:"concolicd_pages_cow_faulted_total" help:"Guest memory pages copied on write from the boot image or from a forked parent."`

	// Shared solver-cache tier (DESIGN.md §16): concolicd's -sharedcache
	// file tier, or the in-process tier eval.RunCell gives every cell;
	// zero without Capabilities.SharedCache. Other engines read and write
	// the same tier, so these count traffic that depends on what ran
	// before in the fleet or the process, not on this call alone.
	SharedCacheHits   uint64 `json:"sharedcache_hits" merge:"sum" prom:"concolicd_sharedcache_hits_total" help:"Local cache misses answered by the shared tier (concolicd's file tier or evaltable's in-process tier)."`
	SharedCacheMisses uint64 `json:"sharedcache_misses" merge:"sum" prom:"concolicd_sharedcache_misses_total" help:"Shared-tier lookups that fell through to a local solve."`
	SharedCacheStores uint64 `json:"sharedcache_stores" merge:"sum" prom:"concolicd_sharedcache_stores_total" help:"Locally solved queries written through to the shared tier, whose other engines may read them."`
	SharedCacheServed uint64 `json:"sharedcache_served" merge:"sum" prom:"concolicd_sharedcache_served_total" help:"Queries served by entries another engine solved (direct shared-tier hits plus local re-hits)."`

	// Coverage and hybrid fuzzing (DESIGN.md §15). Coverage is a function
	// of the executed traces, so it is deterministic for a fixed seed
	// across worker counts.
	CoveredEdges      int   `json:"covered_edges" merge:"sum" prom:"concolicd_cover_edges_total" help:"Distinct lifted-PC edges covered by concolic rounds and fuzz executions."`
	CoveredBlocks     int   `json:"covered_blocks" merge:"sum" prom:"concolicd_cover_blocks_total" help:"Distinct static basic blocks covered by concolic rounds and fuzz executions."`
	NewEdgesPerRound  []int `json:"new_edges_per_round,omitempty" merge:"run" help:"Edges each merged round covered first, in dispatch order."`
	FuzzExecs         int   `json:"fuzz_execs" merge:"sum" prom:"concolicd_fuzz_execs_total" help:"Concrete mutation executions by fuzz breed rounds."`
	FuzzSeedsPromoted int   `json:"fuzz_seeds_promoted" merge:"sum" prom:"concolicd_fuzz_seeds_promoted_total" help:"Fuzz mutants that found new coverage and joined the frontier."`
}

// StatField is one counter's schema, read from its Stats struct tags:
//
//	json  — Name, the one spelling of the counter in every sink; a
//	        time.Duration renders in milliseconds, and ",omitempty"
//	        drops a zero value from the JSON
//	merge — Merge, how Add folds a run into a total: "sum", "max", or
//	        "run" (a per-run value Add leaves alone)
//	prom  — Prom, the concolicd /metrics counter; "" when not
//	        exported. Only sums export: a counter must add across jobs
//	help  — Help, one line for the /metrics HELP text and DESIGN.md
type StatField struct {
	Name, Merge, Prom, Help string

	index     int
	omitEmpty bool
}

var durationType = reflect.TypeOf(time.Duration(0))

// statSchema is the Stats table, in declaration order.
var statSchema = buildStatSchema()

func buildStatSchema() []StatField {
	t := reflect.TypeOf(Stats{})
	fields := make([]StatField, t.NumField())
	for i := range fields {
		sf := t.Field(i)
		name, opt, _ := strings.Cut(sf.Tag.Get("json"), ",")
		f := StatField{Name: name, Merge: sf.Tag.Get("merge"), Prom: sf.Tag.Get("prom"),
			Help: sf.Tag.Get("help"), index: i, omitEmpty: opt == "omitempty"}
		switch {
		case f.Name == "" || f.Help == "":
			panic(fmt.Sprintf("core.Stats.%s: missing json or help tag", sf.Name))
		case f.Merge != "sum" && f.Merge != "max" && f.Merge != "run":
			panic(fmt.Sprintf("core.Stats.%s: merge tag %q, want sum, max or run", sf.Name, f.Merge))
		case f.Merge != "run" && sf.Type.Kind() == reflect.Slice:
			panic(fmt.Sprintf("core.Stats.%s: %s cannot merge as %q", sf.Name, sf.Type, f.Merge))
		case f.Prom != "" && f.Merge != "sum":
			panic(fmt.Sprintf("core.Stats.%s: only sum counters export to /metrics", sf.Name))
		}
		fields[i] = f
	}
	return fields
}

// StatFields returns the counter schema in declaration order. The slice
// is shared; callers must not modify it.
func StatFields() []StatField { return statSchema }

// Format renders the field's value in s as its JSON literal.
func (f StatField) Format(s *Stats) string {
	return string(appendStat(nil, reflect.ValueOf(s).Elem().Field(f.index)))
}

func appendStat(b []byte, v reflect.Value) []byte {
	switch {
	case v.Type() == durationType:
		return strconv.AppendInt(b, time.Duration(v.Int()).Milliseconds(), 10)
	case v.Kind() == reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10)
	case v.CanInt():
		return strconv.AppendInt(b, v.Int(), 10)
	}
	j, _ := json.Marshal(v.Interface()) // []int cannot fail
	return append(b, j...)
}

// Add folds o into s field by field under each field's merge kind. It
// allocates nothing: the scheduler calls it once per merged round.
func (s *Stats) Add(o *Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i := range statSchema {
		f := &statSchema[i]
		d, x := dst.Field(f.index), src.Field(f.index)
		unsigned := d.Kind() == reflect.Uint64
		switch {
		case f.Merge == "sum" && unsigned:
			d.SetUint(d.Uint() + x.Uint())
		case f.Merge == "sum":
			d.SetInt(d.Int() + x.Int())
		case f.Merge == "max" && unsigned:
			if x.Uint() > d.Uint() {
				d.SetUint(x.Uint())
			}
		case f.Merge == "max":
			if x.Int() > d.Int() {
				d.SetInt(x.Int())
			}
		}
	}
}

// MarshalJSON renders every counter under its schema name, in
// declaration order.
func (s Stats) MarshalJSON() ([]byte, error) {
	v := reflect.ValueOf(&s).Elem()
	b := []byte{'{'}
	for _, f := range statSchema {
		fv := v.Field(f.index)
		if f.omitEmpty && fv.IsZero() {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, f.Name)
		b = append(b, ':')
		b = appendStat(b, fv)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON is MarshalJSON's inverse. Absent keys leave their field
// untouched and unknown keys are ignored, so documents written before a
// counter existed still decode.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	v := reflect.ValueOf(s).Elem()
	for _, f := range statSchema {
		r, ok := raw[f.Name]
		if !ok {
			continue
		}
		fv := v.Field(f.index)
		var err error
		if fv.Type() == durationType {
			var ms int64
			err = json.Unmarshal(r, &ms)
			fv.SetInt(int64(time.Duration(ms) * time.Millisecond))
		} else {
			err = json.Unmarshal(r, fv.Addr().Interface())
		}
		if err != nil {
			return fmt.Errorf("stats %s: %w", f.Name, err)
		}
	}
	return nil
}

// CacheHitRate is CacheHits over total lookups, 0 when idle.
func (s Stats) CacheHitRate() float64 {
	if tot := s.CacheHits + s.CacheMisses; tot > 0 {
		return float64(s.CacheHits) / float64(tot)
	}
	return 0
}

// InternHitRate is InternHits over total lookups, 0 when idle.
func (s Stats) InternHitRate() float64 {
	if tot := s.InternHits + s.InternMisses; tot > 0 {
		return float64(s.InternHits) / float64(tot)
	}
	return 0
}
