package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one traced interval: an op (a cell or a job), an engine round
// inside it, or a probe stage. Times are microseconds since the pass
// began; Attrs carries counts measured at the span's boundary, such as a
// round's counter deltas.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent,omitempty"`
	Op      int              `json:"op"`
	Name    string           `json:"name"`
	Cell    string           `json:"cell,omitempty"`
	StartUS float64          `json:"start_us"`
	EndUS   float64          `json:"end_us"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps a pass's spans in memory until the pass ends. A nil tracer
// records nothing, so untraced passes pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that is recorded
// after them.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span under a reserved id.
func (t *tracer) add(id, parent, op int, name, cell string, start, end time.Time, attrs map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Cell: cell,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
		Attrs:   attrs,
	})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layers maps each repro/internal package to the layer its CPU time is
// charged to. A package not listed is charged to "other"; a sample with no
// repro/internal frame at all (GC, scheduler, syscalls, net/http, the
// benchmark's own code) is charged to "runtime".
var layers = map[string]string{
	"core": "core", "mutate": "core",
	"gos": "gos", "vm": "gos", "mem": "gos",
	"trace":   "trace",
	"cover":   "cover",
	"symexec": "symexec", "lift": "symexec", "ir": "symexec",
	"sym":    "sym",
	"solver": "solver", "exchange": "solver",
	"bitblast": "bitblast",
	"sat":      "sat",
	"service":  "service", "jobstore": "service", "sharedcache": "service",
}

// layerNames lists every layer a CPU sample can be charged to.
var layerNames = []string{"core", "gos", "trace", "cover", "symexec", "sym", "solver", "bitblast", "sat", "service", "runtime", "other"}

const internalPrefix = "repro/internal/"

// speedProbeFrame starts the frames of the benchmark's host speed probe.
const speedProbeFrame = "main.(*speedProbe)."

// layerOf charges a stack, innermost frame first, to the layer of its
// innermost repro/internal frame. The speed probe's stacks are charged to
// no layer: it returns "".
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, speedProbeFrame) {
			return ""
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, internalPrefix) {
			continue
		}
		pkg := f[len(internalPrefix):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layers[pkg]; ok {
			return l
		}
		return "other"
	}
	return "runtime"
}

// cpuByLayer decodes a CPU profile with `go tool pprof -traces` and sums
// its samples per layer, in seconds.
func cpuByLayer(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces text: after a header, each sample is
// a separator line of dashes, then its value in front of the innermost
// frame, then one frame per line outward.
func parseTraces(text []byte) (map[string]float64, error) {
	byLayer := map[string]float64{}
	var value float64
	var frames []string
	flush := func() {
		if frames != nil {
			if l := layerOf(frames); l != "" {
				byLayer[l] += value
			}
		}
		frames = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || (frames == nil && strings.HasSuffix(fields[0], ":")) {
			continue // a sample label, printed before the value
		}
		if frames == nil {
			v, err := parseSeconds(fields[0])
			if err != nil {
				return nil, err
			}
			value = v
			fields = fields[1:]
			frames = []string{}
		}
		if len(fields) > 0 {
			frames = append(frames, fields[0])
		}
	}
	flush()
	return byLayer, sc.Err()
}

// parseSeconds reads a pprof time value such as "10ms", "1.50s" or
// "1.20mins".
func parseSeconds(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		secs   float64
	}{{"hrs", 3600}, {"mins", 60}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				break
			}
			return v * u.secs, nil
		}
	}
	return 0, fmt.Errorf("pprof -traces: sample value %q is not a time", s)
}
