package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

type testRec struct {
	H int    `json:"h"`
	I int    `json:"i"`
	S string `json:"s"`
}

// lines scans the whole file at path, copying each line out.
func lines(t *testing.T, path string) []string {
	t.Helper()
	var out []string
	if _, err := Scan(path, 0, func(l []byte) { out = append(out, string(l)) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// refLines is the reference model of a crashed log: the original bytes
// with the torn tail newline-terminated, split into non-empty lines.
func refLines(data []byte) []string {
	if len(data) > 0 && data[len(data)-1] != '\n' {
		data = append(append([]byte{}, data...), '\n')
	}
	var out []string
	for _, l := range bytes.Split(data, []byte{'\n'}) {
		if len(l) > 0 {
			out = append(out, string(l))
		}
	}
	return out
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzJournal treats arbitrary bytes as a crashed log, appends records
// through one handle and then concurrently through two, and checks a
// reopen scans exactly the reference model: the crashed lines with the
// tail terminated, then every appended record intact — concurrent
// appends may interleave whole lines but never fuse them.
func FuzzJournal(f *testing.F) {
	f.Add([]byte(""), uint8(2), "x")
	f.Add([]byte("{\"a\":1}\n"), uint8(1), "")
	f.Add([]byte("{\"a\":1}\n{\"a\":"), uint8(3), "y")
	f.Add([]byte("\n\n\ngarbage"), uint8(0), "z")
	f.Add([]byte("no newline at all"), uint8(5), "line\nbreak")

	f.Fuzz(func(t *testing.T, data []byte, n uint8, s string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := refLines(data)

		j, err := Open(dir, "log.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(n%8); i++ {
			r := testRec{I: i, S: s}
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, marshal(t, r))
		}
		j.Close()
		if got := lines(t, path); !slices.Equal(got, want) {
			t.Fatalf("after appends:\n got %q\nwant %q", got, want)
		}

		// Two handles on one file appending at once.
		a, err := Open(dir, "log.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		b, err := Open(dir, "log.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		const perHandle = 16
		var concurrent []string
		var wg sync.WaitGroup
		for h, jn := range []*Journal{a, b} {
			for i := 0; i < perHandle; i++ {
				concurrent = append(concurrent, marshal(t, testRec{H: h + 1, I: i, S: s}))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perHandle; i++ {
					if err := jn.Append(testRec{H: h + 1, I: i, S: s}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		a.Close()
		b.Close()

		got := lines(t, path)
		if len(got) != len(want)+len(concurrent) || !slices.Equal(got[:len(want)], want) {
			t.Fatalf("after concurrent appends:\n got %q\nwant %q + %d lines", got, want, len(concurrent))
		}
		tail := append([]string{}, got[len(want):]...)
		slices.Sort(tail)
		slices.Sort(concurrent)
		if !slices.Equal(tail, concurrent) {
			t.Fatalf("concurrent appends fused or lost:\n got %q\nwant %q", tail, concurrent)
		}
	})
}

// TestScanParksAtUnterminatedLine is the tailing contract: a line still
// being written is not reported, and the returned offset lets the next
// Scan pick it up once its newline lands.
func TestScanParksAtUnterminatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if off, err := Scan(path, 0, func([]byte) { t.Fatal("line in a missing file") }); off != 0 || err != nil {
		t.Fatalf("missing file: off=%d err=%v", off, err)
	}
	if err := os.WriteFile(path, []byte("one\n\ntwo"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	collect := func(l []byte) { got = append(got, string(l)) }
	off, err := Scan(path, 0, collect)
	if err != nil || off != 5 || !slices.Equal(got, []string{"one"}) {
		t.Fatalf("first scan: off=%d err=%v lines=%q", off, err, got)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("-done\n")
	f.Close()
	got = nil
	off, err = Scan(path, off, collect)
	if err != nil || off != 14 || !slices.Equal(got, []string{"two-done"}) {
		t.Fatalf("second scan: off=%d err=%v lines=%q", off, err, got)
	}
}

// TestCompactReplay checks Compact replaces the snapshot and empties the
// log, and that Replay reads the snapshot before later appends.
func TestCompactReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, "log.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j.Append(testRec{I: i})
	}
	if err := j.Compact("snap.jsonl", []any{testRec{S: "folded"}}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "log.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("log not emptied by Compact: %v", err)
	}
	if err := j.Append(testRec{I: 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRec{}); err == nil {
		t.Fatal("append after Close succeeded")
	}

	re, err := Open(dir, "log.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var got []string
	if err := re.Replay("snap.jsonl", func(l []byte) { got = append(got, string(l)) }); err != nil {
		t.Fatal(err)
	}
	want := []string{marshal(t, testRec{S: "folded"}), marshal(t, testRec{I: 9})}
	if !slices.Equal(got, want) {
		t.Fatalf("replay: got %q want %q", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap.jsonl.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temporary snapshot left behind: %v", err)
	}
}
