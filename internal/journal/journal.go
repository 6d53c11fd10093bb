// Package journal owns one append-only JSONL file: the crash-tolerance
// layer under the job store, the warm-start store and the shared
// solver-query tier. Each policy below exists once, so the three stores
// cannot drift apart in how they survive a crash.
//
//   - Open creates the directory, opens the file with O_APPEND and
//     newline-terminates a torn tail (a crash mid-append) before anything
//     reads it, so the next append starts a fresh line instead of fusing
//     onto the torn one and being lost on the following replay.
//   - Scan reads complete lines from a byte offset and returns the offset
//     past the last of them. Empty lines are skipped; an unterminated
//     final line (an append in flight) is left for the next Scan. Lines
//     that do not decode are the caller's to skip, so one torn record
//     loses that record, never the records after it.
//   - Append writes one record as a single unbuffered write. Concurrent
//     appenders — goroutines or processes — interleave whole lines but
//     never bytes within a line, and a killed process loses at most the
//     record in flight.
//   - Compact writes a snapshot to a temporary file, fsyncs it, renames it
//     over the old snapshot and then truncates the log. A crash before the
//     truncate replays the log on top of a snapshot that already holds it,
//     so stores must fold records idempotently.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
)

// Journal is an open append-only JSONL log. A Journal is not safe for
// concurrent use (its stores serialise calls under their own lock), but
// separate handles on one file, in one process or many, may append at
// the same time.
type Journal struct {
	dir  string
	path string
	f    *os.File
}

// Open opens (creating if needed) the log dir/name for appending.
func Open(dir, name string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := terminateTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{dir: dir, path: path, f: f}, nil
}

// terminateTail appends a newline when the file's last byte is not one.
// Appends are single writes, so a missing newline can only be crash
// damage; should another handle append between the check and the
// repair, the extra newline only makes an empty line, which Scan skips.
func terminateTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// Scan calls fn with each complete non-empty line of the file at path
// from byte offset from, without its newline, and returns the offset
// just past the last complete line. A missing file holds no lines. The
// line slice is valid only during the call.
func Scan(path string, from int64, fn func(line []byte)) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return from, nil
	}
	if err != nil {
		return from, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return from, err
	}
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return from, nil // unterminated tail: rescan it next time
		}
		if err != nil {
			return from, err
		}
		from += int64(len(line))
		if len(line) > 1 {
			fn(line[:len(line)-1])
		}
	}
}

// Scan is the package-level Scan over this journal's log.
func (j *Journal) Scan(from int64, fn func(line []byte)) (int64, error) {
	return Scan(j.path, from, fn)
}

// Replay scans the snapshot dir/snapshot, then the whole log.
func (j *Journal) Replay(snapshot string, fn func(line []byte)) error {
	if _, err := Scan(filepath.Join(j.dir, snapshot), 0, fn); err != nil {
		return err
	}
	_, err := j.Scan(0, fn)
	return err
}

// Append writes v as one JSON line in a single write.
func (j *Journal) Append(v any) error {
	if j.f == nil {
		return os.ErrClosed
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = j.f.Write(append(b, '\n'))
	return err
}

// Compact makes recs, one JSON line each, the content of the snapshot
// dir/snapshot, then empties the log.
func (j *Journal) Compact(snapshot string, recs []any) error {
	if j.f == nil {
		return os.ErrClosed
	}
	tmp := filepath.Join(j.dir, snapshot+".tmp")
	if err := writeSynced(tmp, recs); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapshot)); err != nil {
		return err
	}
	return j.f.Truncate(0)
}

func writeSynced(path string, recs []any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err = enc.Encode(r); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the log. Every append is already on disk.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
