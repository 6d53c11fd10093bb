// Package warmstore is a disk-backed store for solver knowledge that
// outlives a process: query verdicts (the persistent half of the solver
// query cache) and learned clauses (the persistent half of the portfolio
// clause exchange). A later run — or another concolicd replica sharing
// the directory — warm-starts from it instead of re-solving from cold.
//
// Layout: one directory holding a journal (internal/journal) —
// `log.jsonl`, one record appended per Put — and a snapshot
// (`snapshot.jsonl`, the same record format, rewritten on
// Compact/Close). Open replays snapshot then log with the journal's
// crash policy: a torn or corrupt line loses that record only, so a
// killed process loses at most its final append.
//
// Keys are opaque strings chosen by the caller. They must be stable
// across processes and JSON-safe: the solver layer uses hex-encoded
// sym.StableKey digests (intern-id CanonicalKeys are process-local and
// cannot name anything on disk).
//
// Statuses are stored as plain ints to keep this package below the
// solver in the dependency order; the solver layer owns the mapping.
package warmstore

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/journal"
	"repro/internal/sat"
)

// Stats counts store traffic since Open.
type Stats struct {
	Queries    int // query entries held
	ClauseKeys int // systems with pooled clauses
	Clauses    int // total pooled clauses
	Hits       int64
	Misses     int64
	Appends    int64 // records appended to the log this session
}

// QueryEntry is one persisted query verdict.
type QueryEntry struct {
	Key       string            `json:"k"`
	Status    int               `json:"s"`
	Conflicts int64             `json:"n,omitempty"`
	Model     map[string]uint64 `json:"m,omitempty"`
}

// record is one log/snapshot line. Exactly one of Q and C is set,
// selected by T ("q" or "c").
type record struct {
	T string      `json:"t"`
	Q *QueryEntry `json:"q,omitempty"`
	C *clauseRec  `json:"c,omitempty"`
}

type clauseRec struct {
	Key     string      `json:"k"`
	Clauses [][]sat.Lit `json:"cl"`
}

// Store is a warm-start store. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	log     *journal.Journal
	queries map[string]QueryEntry
	clauses map[string]*clausePool
	hits    int64
	misses  int64
	appends int64
}

type clausePool struct {
	list [][]sat.Lit
	seen map[string]bool
}

const (
	snapshotName = "snapshot.jsonl"
	logName      = "log.jsonl"
)

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	j, err := journal.Open(dir, logName)
	if err != nil {
		return nil, fmt.Errorf("warmstore: %w", err)
	}
	st := &Store{
		log:     j,
		queries: make(map[string]QueryEntry),
		clauses: make(map[string]*clausePool),
	}
	err = j.Replay(snapshotName, func(line []byte) {
		var r record
		if json.Unmarshal(line, &r) == nil {
			st.apply(r)
		}
	})
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("warmstore: %w", err)
	}
	return st, nil
}

func (st *Store) apply(r record) {
	switch {
	case r.T == "q" && r.Q != nil:
		st.queries[r.Q.Key] = *r.Q
	case r.T == "c" && r.C != nil:
		p := st.pool(r.C.Key)
		for _, lits := range r.C.Clauses {
			p.add(lits)
		}
	}
}

func (st *Store) pool(key string) *clausePool {
	p := st.clauses[key]
	if p == nil {
		p = &clausePool{seen: make(map[string]bool)}
		st.clauses[key] = p
	}
	return p
}

func (p *clausePool) add(lits []sat.Lit) bool {
	k := litsKey(lits)
	if p.seen[k] {
		return false
	}
	p.seen[k] = true
	p.list = append(p.list, lits)
	return true
}

func litsKey(lits []sat.Lit) string {
	b := make([]byte, 4*len(lits))
	for i, l := range lits {
		b[4*i] = byte(l)
		b[4*i+1] = byte(l >> 8)
		b[4*i+2] = byte(l >> 16)
		b[4*i+3] = byte(l >> 24)
	}
	return string(b)
}

func (st *Store) append(r record) {
	if st.log.Append(r) == nil {
		st.appends++
	}
}

// LookupQuery returns the persisted verdict for key, if any. The model
// map is a copy.
func (st *Store) LookupQuery(key string) (QueryEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.queries[key]
	if !ok {
		st.misses++
		return QueryEntry{}, false
	}
	st.hits++
	if e.Model != nil {
		m := make(map[string]uint64, len(e.Model))
		for k, v := range e.Model {
			m[k] = v
		}
		e.Model = m
	}
	return e, true
}

// PutQuery persists a query verdict. An existing entry with the same
// status is kept as-is (any valid model serves); a status change — e.g.
// Unknown strengthened to a conclusive verdict — overwrites.
func (st *Store) PutQuery(e QueryEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.queries[e.Key]; ok && prev.Status == e.Status {
		return // already persisted; don't grow the log
	}
	st.queries[e.Key] = e
	st.append(record{T: "q", Q: &e})
}

// Clauses returns the pooled clauses for key (shared read-only slices).
func (st *Store) Clauses(key string) [][]sat.Lit {
	st.mu.Lock()
	defer st.mu.Unlock()
	p := st.clauses[key]
	if p == nil || len(p.list) == 0 {
		st.misses++
		return nil
	}
	st.hits++
	out := make([][]sat.Lit, len(p.list))
	copy(out, p.list)
	return out
}

// PutClauses merges clauses into key's pool, persisting only the ones
// not already present.
func (st *Store) PutClauses(key string, clauses [][]sat.Lit) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p := st.pool(key)
	var fresh [][]sat.Lit
	for _, lits := range clauses {
		cp := append([]sat.Lit(nil), lits...)
		if p.add(cp) {
			fresh = append(fresh, cp)
		}
	}
	if len(fresh) > 0 {
		st.append(record{T: "c", C: &clauseRec{Key: key, Clauses: fresh}})
	}
}

// Compact rewrites the snapshot from memory and truncates the log.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	recs := make([]any, 0, len(st.queries)+len(st.clauses))
	for _, e := range st.queries {
		recs = append(recs, record{T: "q", Q: &e})
	}
	for key, p := range st.clauses {
		if len(p.list) > 0 {
			recs = append(recs, record{T: "c", C: &clauseRec{Key: key, Clauses: p.list}})
		}
	}
	if err := st.log.Compact(snapshotName, recs); err != nil {
		return fmt.Errorf("warmstore: %w", err)
	}
	return nil
}

// Close compacts and releases the store.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	if err := st.Compact(); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.log.Close(); err != nil {
		return fmt.Errorf("warmstore: %w", err)
	}
	return nil
}

// Stats returns the store's current size and traffic counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Queries: len(st.queries),
		Hits:    st.hits,
		Misses:  st.misses,
		Appends: st.appends,
	}
	for _, p := range st.clauses {
		if len(p.list) > 0 {
			s.ClauseKeys++
			s.Clauses += len(p.list)
		}
	}
	return s
}
