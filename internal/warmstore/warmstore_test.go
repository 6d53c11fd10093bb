package warmstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sat"
)

func lits(ls ...int32) []sat.Lit {
	out := make([]sat.Lit, len(ls))
	for i, l := range ls {
		out[i] = sat.Lit(l)
	}
	return out
}

// TestRoundTrip writes verdicts and clauses, reopens the directory, and
// checks everything reloads — through the log alone (no Compact), and
// again through the snapshot after a clean Close.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.PutQuery(QueryEntry{Key: "q1", Status: 1, Conflicts: 12,
		Model: map[string]uint64{"argv1_0": 0x35}})
	st.PutQuery(QueryEntry{Key: "q2", Status: 2, Conflicts: 400})
	st.PutClauses("sysA", [][]sat.Lit{lits(2, 5), lits(7)})
	st.PutClauses("sysA", [][]sat.Lit{lits(2, 5), lits(9, 11)}) // one dup

	// Reload via the append-only log (simulates a crash before Compact).
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st2.LookupQuery("q1")
	if !ok || e.Status != 1 || e.Model["argv1_0"] != 0x35 {
		t.Fatalf("q1 after log reload: %+v ok=%v", e, ok)
	}
	if e, ok := st2.LookupQuery("q2"); !ok || e.Status != 2 || e.Conflicts != 400 {
		t.Fatalf("q2 after log reload: %+v ok=%v", e, ok)
	}
	if cs := st2.Clauses("sysA"); len(cs) != 3 {
		t.Fatalf("sysA clauses after log reload: %d, want 3", len(cs))
	}
	if _, ok := st2.LookupQuery("absent"); ok {
		t.Fatal("phantom query entry")
	}
	s := st2.Stats()
	if s.Queries != 2 || s.ClauseKeys != 1 || s.Clauses != 3 || s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("stats after log reload: %+v", s)
	}
	if err := st2.Close(); err != nil { // compacts into the snapshot
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated by Close: %v size=%d", err, fi.Size())
	}

	// Reload via the snapshot.
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if e, ok := st3.LookupQuery("q1"); !ok || e.Status != 1 {
		t.Fatalf("q1 after snapshot reload: %+v ok=%v", e, ok)
	}
	if cs := st3.Clauses("sysA"); len(cs) != 3 {
		t.Fatalf("sysA clauses after snapshot reload: %d, want 3", len(cs))
	}
}

// TestTornTail corrupts the log tail and checks Open keeps the intact
// prefix instead of failing.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.PutQuery(QueryEntry{Key: "good", Status: 1})
	st.PutQuery(QueryEntry{Key: "alsogood", Status: 2})
	st.log.Close() // abandon without Close: no snapshot

	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"q","q":{"k":"torn","s"`) // truncated mid-record
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer st2.Close()
	if _, ok := st2.LookupQuery("good"); !ok {
		t.Error("lost intact entry before the torn tail")
	}
	if _, ok := st2.LookupQuery("alsogood"); !ok {
		t.Error("lost second intact entry")
	}
	if _, ok := st2.LookupQuery("torn"); ok {
		t.Error("resurrected the torn record")
	}
}

// tearLog appends an unterminated record fragment to the log, as a
// process killed mid-append would leave it.
func tearLog(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"t":"q","q":{"k":"torn","s"`); err != nil {
		t.Fatal(err)
	}
}

// TestSecondCrashKeepsPostCrashAppends crashes the same directory twice:
// the appends made between the crashes must survive the second one,
// neither fused onto the first torn line nor cut off behind it.
func TestSecondCrashKeepsPostCrashAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.PutQuery(QueryEntry{Key: "before", Status: 1})
	st.log.Close() // crash: no Close, no snapshot
	tearLog(t, dir)

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.PutQuery(QueryEntry{Key: "after1", Status: 2})
	st2.PutQuery(QueryEntry{Key: "after2", Status: 1})
	st2.log.Close() // second crash

	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	for _, k := range []string{"before", "after1", "after2"} {
		if _, ok := st3.LookupQuery(k); !ok {
			t.Errorf("entry %q lost across two crashes", k)
		}
	}
	if _, ok := st3.LookupQuery("torn"); ok {
		t.Error("resurrected the torn record")
	}
}

// TestAbandonedPutSurvives checks a PutQuery is on disk as soon as it
// returns: a handle abandoned without Close must not lose it.
func TestAbandonedPutSurvives(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.PutQuery(QueryEntry{Key: "q", Status: 1, Model: map[string]uint64{"x": 5}})
	st.PutClauses("sys", [][]sat.Lit{lits(4, 7)})
	st.log.Close() // crash: no Close

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e, ok := re.LookupQuery("q"); !ok || e.Model["x"] != 5 {
		t.Fatalf("abandoned PutQuery lost: %+v ok=%v", e, ok)
	}
	if cs := re.Clauses("sys"); len(cs) != 1 {
		t.Fatalf("abandoned PutClauses lost: %v", cs)
	}
}

// TestStatusStrengthening checks a same-status Put is a no-op for the
// log while a status change overwrites.
func TestStatusStrengthening(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.PutQuery(QueryEntry{Key: "q", Status: 3}) // unknown
	a0 := st.Stats().Appends
	st.PutQuery(QueryEntry{Key: "q", Status: 3})
	if st.Stats().Appends != a0 {
		t.Error("same-status Put grew the log")
	}
	st.PutQuery(QueryEntry{Key: "q", Status: 2}) // strengthened to unsat
	if e, _ := st.LookupQuery("q"); e.Status != 2 {
		t.Errorf("status not strengthened: %+v", e)
	}
	if st.Stats().Appends != a0+1 {
		t.Error("strengthening Put did not persist")
	}
}

// TestConcurrentStore hammers one store from many goroutines; under
// -race this is the data-race gate for the shared-replica scenario.
func TestConcurrentStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("q-%d-%d", w, i)
				st.PutQuery(QueryEntry{Key: key, Status: 1, Model: map[string]uint64{"x": uint64(i)}})
				if e, ok := st.LookupQuery(key); !ok || e.Model["x"] != uint64(i) {
					t.Errorf("lost own write %s", key)
					return
				}
				st.PutClauses(fmt.Sprintf("sys-%d", w%2), [][]sat.Lit{lits(int32(2*i + 2))})
				st.Clauses(fmt.Sprintf("sys-%d", (w+1)%2))
			}
		}(w)
	}
	wg.Wait()
	if s := st.Stats(); s.Queries != 800 {
		t.Errorf("queries = %d, want 800", s.Queries)
	}
}
