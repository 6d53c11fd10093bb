// Package sharedcache is the cross-replica solver-query cache tier: a
// directory shared by every concolicd replica (and CLI run) of a fleet,
// holding solved query verdicts keyed by cross-process-stable digests.
// One replica solves a query; every other replica answers it from disk.
//
// Layout: a single journal (internal/journal), `queries.jsonl`. Each
// replica appends whole lines, so concurrent replicas interleave lines
// but never bytes within a line. Readers tail the journal incrementally:
// each Lookup miss re-scans only the bytes appended since the last scan,
// so another replica's entries become visible without any coordination,
// watcher, or server. A line still being written is picked up by the
// next refresh; a torn or corrupt one is skipped.
//
// Keys are opaque strings chosen by the caller; they must be stable
// across processes and JSON-safe. The solver layer keys entries with
// hex-encoded sym.DigestKey digests plus the conflict budget, so an
// entry is a pure function of the query — which is what keeps verdicts
// byte-identical whether they were solved locally or served from the
// tier. Statuses are stored as plain ints to keep this package below the
// solver in the dependency order; the solver layer owns the mapping.
package sharedcache

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/journal"
)

// Entry is one persisted query verdict. Exact is an exact, collision-
// checked identity of the query, stored by the solver layer on entries
// without a model: a model can be re-checked against the query, a bare
// unsat or unknown verdict cannot.
type Entry struct {
	Key       string            `json:"k"`
	Status    int               `json:"s"`
	Conflicts int64             `json:"n,omitempty"`
	Model     map[string]uint64 `json:"m,omitempty"`
	Exact     string            `json:"x,omitempty"`
}

// Stats counts tier traffic since Open.
type Stats struct {
	Entries   int   // entries visible in memory
	Hits      int64 // lookups answered
	Misses    int64 // lookups that stayed unanswered after a refresh
	Stores    int64 // entries this process appended
	Refreshes int64 // incremental log re-scans
}

const logName = "queries.jsonl"

// Tier is one process's handle on a shared cache directory. Safe for
// concurrent use; multiple processes may hold handles on one directory.
type Tier struct {
	mu      sync.Mutex
	log     *journal.Journal
	entries map[string]Entry
	offset  int64 // bytes of the log already scanned
	stats   Stats
}

// Open opens (creating if needed) the tier rooted at dir and loads the
// entries already on disk.
func Open(dir string) (*Tier, error) {
	j, err := journal.Open(dir, logName)
	if err != nil {
		return nil, fmt.Errorf("sharedcache: %w", err)
	}
	t := &Tier{log: j, entries: make(map[string]Entry)}
	t.mu.Lock()
	err = t.refreshLocked()
	t.mu.Unlock()
	if err != nil {
		j.Close()
		return nil, err
	}
	return t, nil
}

// refreshLocked scans log lines appended since the last scan into the
// in-memory map. The first entry seen for a key wins unless a later one
// supersedes it.
func (t *Tier) refreshLocked() error {
	t.stats.Refreshes++
	off, err := t.log.Scan(t.offset, func(line []byte) {
		var e Entry
		if json.Unmarshal(line, &e) != nil || e.Key == "" {
			return
		}
		if old, ok := t.entries[e.Key]; !ok || supersedes(e, old) {
			t.entries[e.Key] = e
		}
	})
	t.offset = off
	if err != nil {
		return fmt.Errorf("sharedcache: %w", err)
	}
	return nil
}

// Lookup returns the persisted verdict for key, refreshing from disk on
// a memory miss so other replicas' appends are observed. The model map
// is a copy.
func (t *Tier) Lookup(key string) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok {
		if err := t.refreshLocked(); err == nil {
			e, ok = t.entries[key]
		}
	}
	if !ok {
		t.stats.Misses++
		return Entry{}, false
	}
	t.stats.Hits++
	if e.Model != nil {
		m := make(map[string]uint64, len(e.Model))
		for k, v := range e.Model {
			m[k] = v
		}
		e.Model = m
	}
	return e, true
}

// Store persists a query verdict. An entry already visible under the
// same key is kept (verdicts are pure functions of the key, so any copy
// serves) unless e supersedes it; the append is a single write so
// concurrent replicas never interleave partial lines.
func (t *Tier) Store(e Entry) {
	if e.Key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.entries[e.Key]; ok && !supersedes(e, old) {
		return
	}
	if t.log.Append(e) != nil {
		return
	}
	t.entries[e.Key] = e
	t.stats.Stores++
}

// supersedes reports whether e replaces old under the same key: an
// entry with an exact key replaces one with neither an exact key nor a
// model. Such an entry is a non-sat verdict written before exact keys
// were stored; the solver layer no longer serves it, so without the
// replacement its query would miss the tier for good.
func supersedes(e, old Entry) bool {
	return e.Exact != "" && old.Exact == "" && old.Model == nil
}

// Stats returns the tier's traffic counters.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Entries = len(t.entries)
	return s
}

// Close releases the log handle. Entries are already durable — every
// Store was a direct append.
func (t *Tier) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.log.Close(); err != nil {
		return fmt.Errorf("sharedcache: %w", err)
	}
	return nil
}
