// Package jobstore is the disk-backed half of the service job registry:
// a journal + snapshot (internal/journal) holding one record per job, so
// queued work and finished results survive a concolicd restart or crash.
//
// Layout: a directory with `log.jsonl` (one record appended per state
// transition) and `snapshot.jsonl` (the same record format, rewritten on
// Compact/Close). Open replays snapshot then log with the journal's
// crash policy: a torn or corrupt line loses that record only. The
// latest record per job wins; first-seen order is preserved, so a
// replayed store lists jobs in their original submission order.
//
// Requests and results are opaque json.RawMessage payloads: the service
// layer owns their schema, which keeps this package below it in the
// dependency order (the same idiom warmstore uses toward the solver).
package jobstore

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/journal"
)

// Record is one job's persisted state. Every Put writes the whole
// record; replay keeps the latest per ID.
type Record struct {
	ID        string          `json:"id"`
	Req       json.RawMessage `json:"req"`
	State     string          `json:"state"`
	Tenant    string          `json:"tenant,omitempty"`
	Replica   string          `json:"replica,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started"`
	Finished  time.Time       `json:"finished"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// rec is one log/snapshot line: a job put ("j") or a tombstone ("d").
type rec struct {
	T string  `json:"t"`
	J *Record `json:"j,omitempty"`
	D string  `json:"d,omitempty"`
}

// Stats counts store contents and traffic since Open.
type Stats struct {
	Jobs     int   // live records
	Replayed int   // records recovered by Open (after tombstones)
	Appends  int64 // log lines written this session
}

const (
	snapshotName = "snapshot.jsonl"
	logName      = "log.jsonl"
)

// Log is a disk-backed job record store. Safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	log      *journal.Journal
	records  map[string]*Record
	order    []string // first-seen order; survives updates and replay
	replayed int
	appends  int64
}

// Open opens (creating if needed) the store rooted at dir and replays
// its contents.
func Open(dir string) (*Log, error) {
	j, err := journal.Open(dir, logName)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	l := &Log{log: j, records: make(map[string]*Record)}
	err = j.Replay(snapshotName, func(line []byte) {
		var r rec
		if json.Unmarshal(line, &r) == nil {
			l.apply(r)
		}
	})
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	l.replayed = len(l.order)
	return l, nil
}

func (l *Log) apply(r rec) {
	switch {
	case r.T == "j" && r.J != nil && r.J.ID != "":
		cp := *r.J
		if _, seen := l.records[cp.ID]; !seen {
			l.order = append(l.order, cp.ID)
		}
		l.records[cp.ID] = &cp
	case r.T == "d" && r.D != "":
		if _, seen := l.records[r.D]; seen {
			delete(l.records, r.D)
			for i, id := range l.order {
				if id == r.D {
					l.order = append(l.order[:i], l.order[i+1:]...)
					break
				}
			}
		}
	}
}

// Put persists a job record (insert or full update).
func (l *Log) Put(r Record) {
	if r.ID == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.apply(rec{T: "j", J: &r})
	l.append(rec{T: "j", J: &r})
}

// Delete removes a job record (submit rollback on backpressure),
// persisting a tombstone.
func (l *Log) Delete(id string) {
	if id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.apply(rec{T: "d", D: id})
	l.append(rec{T: "d", D: id})
}

func (l *Log) append(r rec) {
	if l.log.Append(r) == nil {
		l.appends++
	}
}

// Records returns copies of every live record in first-seen order.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, *l.records[id])
	}
	return out
}

// Stats returns the store's size and traffic counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Jobs: len(l.order), Replayed: l.replayed, Appends: l.appends}
}

// Compact rewrites the snapshot from memory and truncates the log.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([]any, len(l.order))
	for i, id := range l.order {
		recs[i] = rec{T: "j", J: l.records[id]}
	}
	if err := l.log.Compact(snapshotName, recs); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// Close compacts and releases the store.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	if err := l.Compact(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Close(); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}
