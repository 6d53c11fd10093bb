package gos

import (
	"fmt"
	"sort"

	"repro/internal/cover"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vm"
)

// maxSnapshots bounds how many snapshots one run will retain regardless
// of the configured cadence, so a misconfigured cadence cannot hold an
// unbounded number of memory handles alive.
const maxSnapshots = 96

// Snapshot is a resumable machine checkpoint, taken between scheduler
// slices. It captures every piece of state a run accumulates — per-thread
// vm.States (registers + copy-on-write memory handles), file descriptors,
// pipes, the filesystem, the kv store, stdout, the stdin cursor and the
// scheduler position — plus the step count and trace length at capture,
// so a resumed machine continues exactly where the snapshotted one was.
// It also carries what the prefix contributes to a run's coverage view:
// each thread's last PC (the source of the edge that crosses the resume
// point) and the Result.Faulted/Web flags, so a resumed run reports them
// for the whole run without a copy of the prefix's trace.
//
// Snapshots are immutable once taken: Resume clones the memory handles
// and copies the OS tables, so one snapshot can seed any number of
// resumed machines (the engine replays many negated inputs against the
// same shared prefix).
type Snapshot struct {
	Steps    int // instructions executed up to the snapshot
	TraceLen int // trace entries recorded up to the snapshot

	prog *vm.Program

	// sliceLeft is the interrupted scheduler slice's remaining quantum.
	// Early snapshots are taken between instructions, i.e. mid-slice; a
	// resumed machine's first slice must run only this many steps so
	// every future slice boundary — and with it the thread round-robin —
	// lands exactly where the snapshotted run's would.
	sliceLeft int

	cur      int
	nextPID  int
	nextTID  int
	nextPipe int
	stdinOff int
	stdout   []byte
	kv       map[string][]byte
	faulted  bool
	web      bool

	files   []snapFile
	fsPaths map[string]int // fs path -> files index (aliasing preserved)
	pipes   []snapPipe
	procs   []snapProc
	threads []snapThread

	watchedHits []uint64
	argv        []Region
}

type snapFile struct{ data []byte }

type snapPipe struct {
	id       int
	buf      []byte
	readOff  uint64
	writeOff uint64
	writers  int
}

type snapFD struct {
	fd       int
	kind     fdKind
	path     string
	fileIdx  int // index into Snapshot.files, -1 if none
	off      int
	pipeID   int // 0 if none
	writeEnd bool
}

type snapProc struct {
	pid        int
	mem        *mem.Memory // copy-on-write clone; immutable while held
	fds        []snapFD    // sorted by fd
	nextFD     int
	sigHandler uint64
	liveThr    int
	exited     bool
	status     int
	waiters    []int // blocked waiter threads, by tid
	nextStack  uint64
}

type snapThread struct {
	tid         int
	pid         int
	st          *vm.State // registers + (proc-shared) memory handle
	dead        bool
	block       blockState
	joinWaiters []int // by tid
	lastPC      uint64
	ran         bool
}

// Early-snapshot tuning. Exploration rounds mutate small parts of the
// input, and the mutated bytes are typically read within the first few
// hundred steps — far inside the first boundary-cadence interval — so
// the early window [0, earlySnapBound] gets snapshots every
// earlySnapEvery steps, plus a rolling snapshot re-taken every step
// while the trace is still input-free (frozen at the first entry that
// observes input: the deepest resume point valid for any sibling).
const (
	earlySnapEvery = 16
	earlySnapBound = 512
)

// Snapshots returns the snapshots taken during Run, ordered by depth.
// Empty unless Config.SnapshotEvery was set. The rolling pre-input
// snapshot, when one exists, is merged at its depth position (dropped
// if a cadence snapshot was taken at the same step).
func (m *Machine) Snapshots() []*Snapshot {
	if m.early == nil {
		return m.snaps
	}
	out := make([]*Snapshot, 0, len(m.snaps)+1)
	placed := false
	for _, s := range m.snaps {
		if !placed && m.early.Steps <= s.Steps {
			if m.early.Steps < s.Steps {
				out = append(out, m.early)
			}
			placed = true
		}
		out = append(out, s)
	}
	if !placed {
		out = append(out, m.early)
	}
	return out
}

// earlySnapshots runs between instructions (where the machine is just
// as quiescent as between slices) during the early window. It maintains
// two snapshot streams:
//
//  1. The rolling pre-input snapshot, re-taken every step while the
//     recorded trace is still input-free and frozen at the first entry
//     that observes input. Siblings whose mutated bytes are read at the
//     program's very first input access (an atoi at the top of main) can
//     resume from it; nothing deeper is ever valid for them.
//  2. Dense early-window snapshots every earlySnapEvery steps, kept in
//     the regular snapshot list. The scheduler validates each against
//     the concrete input pair, so these serve siblings whose mutated
//     bytes are read later (a byte-scan loop reaching the changed byte).
func (m *Machine) earlySnapshots() {
	if m.steps <= earlySnapBound && m.steps-m.lastSnap >= earlySnapEvery {
		m.lastSnap = m.steps
		m.snaps = append(m.snaps, m.takeSnapshot())
	}
	if !m.earlyDone {
		m.rollEarly()
	}
}

// rollEarly advances the input-surface scan and re-takes or freezes the
// rolling pre-input snapshot (see earlySnapshots).
func (m *Machine) rollEarly() {
	if m.tr == nil {
		m.earlyDone = true
		return
	}
	for ; m.earlyScan < len(m.tr.Entries); m.earlyScan++ {
		if m.entryReadsInput(&m.tr.Entries[m.earlyScan]) {
			m.earlyDone = true
			return
		}
	}
	if m.steps > earlySnapBound {
		m.earlyDone = true
		return
	}
	if m.steps == m.lastSnap {
		return // the dense stream just captured this exact state
	}
	if m.early != nil {
		m.early.release()
	}
	m.early = m.takeSnapshot()
}

// entryReadsInput conservatively reports whether a trace entry observed
// any input surface: a system call (environment interaction of any
// kind), an exception, or a memory access overlapping the argv string
// bytes beyond the constant argv0. Memory accesses are widened to 8
// bytes, the largest access size.
func (m *Machine) entryReadsInput(e *trace.Entry) bool {
	if e.Sys != nil || e.Exc != nil {
		return true
	}
	for _, r := range m.argv[1:] {
		if r.Len > 0 && e.Addr < r.Addr+uint64(r.Len) && e.Addr+8 > r.Addr {
			return true
		}
	}
	return false
}

// release returns the snapshot's shared memory pages to their owners.
// Only for snapshots that were never handed out: a released snapshot
// must not be resumed.
func (s *Snapshot) release() {
	for i := range s.procs {
		s.procs[i].mem.Reset()
	}
}

// maybeSnapshot takes a snapshot if the cadence says one is due. Called
// between scheduler slices, where machine state is quiescent. When the
// retention bound is reached the set is thinned — every other snapshot
// dropped, cadence doubled — so a long run keeps whole-run coverage at
// progressively coarser resolution instead of only covering its start.
func (m *Machine) maybeSnapshot() {
	if m.cfg.SnapshotEvery <= 0 || m.stopped {
		return
	}
	if m.steps < m.lastSnap+m.cfg.SnapshotEvery {
		return
	}
	if len(m.snaps) >= maxSnapshots {
		for i := 0; i < len(m.snaps); i += 2 {
			m.snaps[i].release() // dropped below; return its page shares
		}
		kept := m.snaps[:0]
		for i := 1; i < len(m.snaps); i += 2 {
			kept = append(kept, m.snaps[i])
		}
		for i := len(kept); i < len(m.snaps); i++ {
			m.snaps[i] = nil
		}
		m.snaps = kept
		m.cfg.SnapshotEvery *= 2
	}
	m.lastSnap = m.steps
	m.snaps = append(m.snaps, m.takeSnapshot())
}

// takeSnapshot captures the full machine state. Map iterations are
// sorted so the stored form is deterministic.
func (m *Machine) takeSnapshot() *Snapshot {
	traceLen := 0
	if m.tr != nil {
		traceLen = m.tr.Len()
	}
	s := &Snapshot{
		Steps:     m.steps,
		TraceLen:  traceLen,
		prog:      m.prog,
		sliceLeft: m.cfg.Quantum - m.sliceN,
		cur:       m.cur,
		nextPID:   m.nextPID,
		nextTID:   m.nextTID,
		nextPipe:  m.nextPipe,
		stdinOff:  m.stdinOff,
		stdout:    append([]byte(nil), m.stdout.Bytes()...),
		kv:        make(map[string][]byte, len(m.kv)),
		faulted:   m.faulted,
		web:       m.web,
		fsPaths:   make(map[string]int, len(m.fs.files)),
	}
	for k, v := range m.kv {
		s.kv[k] = append([]byte(nil), v...)
	}

	// File objects are reachable both from fs paths and from open fds
	// (including unlinked-but-open files); capture each object once and
	// record references by index so Resume rebuilds the same aliasing.
	fileIdx := make(map[*file]int)
	internFile := func(f *file) int {
		if f == nil {
			return -1
		}
		if i, ok := fileIdx[f]; ok {
			return i
		}
		i := len(s.files)
		fileIdx[f] = i
		s.files = append(s.files, snapFile{data: append([]byte(nil), f.data...)})
		return i
	}
	paths := make([]string, 0, len(m.fs.files))
	for p := range m.fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		s.fsPaths[p] = internFile(m.fs.files[p])
	}

	pipeIDs := make([]int, 0, len(m.pipes))
	for id := range m.pipes {
		pipeIDs = append(pipeIDs, id)
	}
	sort.Ints(pipeIDs)
	for _, id := range pipeIDs {
		p := m.pipes[id]
		s.pipes = append(s.pipes, snapPipe{
			id: p.id, buf: append([]byte(nil), p.buf...),
			readOff: p.readOff, writeOff: p.writeOff, writers: p.writers,
		})
	}

	pids := make([]int, 0, len(m.procs))
	for pid := range m.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	procMem := make(map[int]*mem.Memory, len(pids))
	for _, pid := range pids {
		p := m.procs[pid]
		sp := snapProc{
			pid: p.pid, mem: p.mem.Clone(), nextFD: p.nextFD,
			sigHandler: p.sigHandler, liveThr: p.liveThr,
			exited: p.exited, status: p.status, nextStack: p.nextStack,
		}
		procMem[pid] = sp.mem
		fds := make([]int, 0, len(p.fds))
		for fd := range p.fds {
			fds = append(fds, fd)
		}
		sort.Ints(fds)
		for _, fd := range fds {
			d := p.fds[fd]
			sd := snapFD{
				fd: fd, kind: d.kind, path: d.path,
				fileIdx: internFile(d.file), off: d.off, writeEnd: d.writeEnd,
			}
			if d.pipe != nil {
				sd.pipeID = d.pipe.id
			}
			sp.fds = append(sp.fds, sd)
		}
		for _, w := range p.waiters {
			sp.waiters = append(sp.waiters, w.tid)
		}
		s.procs = append(s.procs, sp)
	}

	for _, t := range m.threads {
		st := snapThread{
			tid: t.tid, pid: t.proc.pid, dead: t.dead, block: t.block,
			lastPC: t.lastPC, ran: t.ran,
			st: &vm.State{
				CPU:      *t.cpu,
				Mem:      procMem[t.proc.pid], // proc-shared snapshot handle
				Cursor:   m.cur,
				TracePos: traceLen,
			},
		}
		for _, w := range t.joinWaiters {
			st.joinWaiters = append(st.joinWaiters, w.tid)
		}
		s.threads = append(s.threads, st)
	}

	addrs := make([]uint64, 0, len(m.watched))
	for a, hit := range m.watched {
		if hit {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	s.watchedHits = addrs
	s.argv = append([]Region(nil), m.argv...)
	return s
}

// Resume materialises a runnable Machine from the snapshot. The machine
// runs under cfg — whose input facets (TimeNow, Pid, WebContent) may
// differ from the snapshotted run's — and, when cfg.Record is set,
// appends to tr, which the caller must have pre-filled with the first
// Snapshot.TraceLen entries of the snapshotted run's trace (copied, with
// taint marks cleared); without Record, tr must be nil. Under cfg.Cover
// the run's set starts empty: it covers only what runs after the
// snapshot.
// The caller is responsible for having verified, via its divergence
// analysis, that no instruction before the snapshot point observed any
// state that differs under cfg; PatchArgv rewrites differing argument
// bytes afterwards.
//
// The snapshot is not consumed: it can be resumed any number of times.
func (s *Snapshot) Resume(cfg Config, tr *trace.Trace) (*Machine, error) {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if len(cfg.Argv) == 0 {
		cfg.Argv = []string{"prog"}
	}
	if cfg.Pid == 0 {
		cfg.Pid = 4242
	}
	if cfg.Record != (tr != nil) {
		return nil, fmt.Errorf("gos: resume takes a trace prefix exactly when recording (Record %v, prefix %v)", cfg.Record, tr != nil)
	}
	if tr != nil && tr.Len() != s.TraceLen {
		return nil, fmt.Errorf("gos: resume trace has %d entries, snapshot taken at %d", tr.Len(), s.TraceLen)
	}
	m := &Machine{
		prog:     s.prog,
		cfg:      cfg,
		fs:       &FS{files: make(map[string]*file, len(s.fsPaths))},
		kv:       make(map[string][]byte, len(s.kv)),
		pipes:    make(map[int]*pipe, len(s.pipes)),
		procs:    make(map[int]*proc, len(s.procs)),
		watched:  make(map[uint64]bool),
		nextPID:  s.nextPID,
		nextTID:  s.nextTID,
		nextPipe: s.nextPipe,
		stdinOff: s.stdinOff,
		steps:    s.Steps,
		lastSnap: s.Steps,
		cur:      s.cur,
		tr:       tr,
		faulted:  s.faulted,
		web:      s.web,
	}
	if cfg.Cover {
		m.cov = cover.NewSet()
	}
	if s.sliceLeft > 0 && s.sliceLeft < cfg.Quantum {
		// Mid-slice snapshot: finish the interrupted slice on the
		// interrupted thread before the next scheduling decision, without
		// the dead-thread prune a fresh pickThread would perform — the
		// snapshotted run prunes only at its next slice boundary, and the
		// round-robin position depends on the pre-prune list length.
		m.sliceLeft = s.sliceLeft
		m.resumePick = true
	}
	m.stdout.Write(s.stdout)
	for k, v := range s.kv {
		m.kv[k] = append([]byte(nil), v...)
	}
	files := make([]*file, len(s.files))
	for i, sf := range s.files {
		files[i] = &file{data: append([]byte(nil), sf.data...)}
	}
	for p, i := range s.fsPaths {
		m.fs.files[p] = files[i]
	}
	for _, sp := range s.pipes {
		m.pipes[sp.id] = &pipe{
			id: sp.id, buf: append([]byte(nil), sp.buf...),
			readOff: sp.readOff, writeOff: sp.writeOff, writers: sp.writers,
		}
	}
	for _, spr := range s.procs {
		p := &proc{
			pid: spr.pid, mem: spr.mem.Clone(),
			fds: make(map[int]*fdesc, len(spr.fds)), nextFD: spr.nextFD,
			sigHandler: spr.sigHandler, liveThr: spr.liveThr,
			exited: spr.exited, status: spr.status, nextStack: spr.nextStack,
		}
		for _, sd := range spr.fds {
			d := &fdesc{kind: sd.kind, path: sd.path, off: sd.off, writeEnd: sd.writeEnd}
			if sd.fileIdx >= 0 {
				d.file = files[sd.fileIdx]
			}
			if sd.pipeID != 0 {
				d.pipe = m.pipes[sd.pipeID]
			}
			p.fds[sd.fd] = d
		}
		m.procs[p.pid] = p
	}
	byTID := make(map[int]*thread, len(s.threads))
	for _, st := range s.threads {
		p := m.procs[st.pid]
		cpu, _ := st.st.Restore() // memory comes from the proc table above
		t := &thread{tid: st.tid, proc: p, cpu: cpu, dead: st.dead, block: st.block,
			lastPC: st.lastPC, ran: st.ran}
		byTID[st.tid] = t
		m.threads = append(m.threads, t)
	}
	for _, st := range s.threads {
		t := byTID[st.tid]
		for _, w := range st.joinWaiters {
			if wt := byTID[w]; wt != nil {
				t.joinWaiters = append(t.joinWaiters, wt)
			}
		}
	}
	for _, spr := range s.procs {
		p := m.procs[spr.pid]
		for _, w := range spr.waiters {
			if wt := byTID[w]; wt != nil {
				p.waiters = append(p.waiters, wt)
			}
		}
	}
	for _, a := range cfg.WatchAddrs {
		m.watched[a] = false
	}
	for _, a := range s.watchedHits {
		if _, ok := m.watched[a]; ok {
			m.watched[a] = true
		}
	}
	m.argv = append([]Region(nil), s.argv...)
	return m, nil
}

// PatchArgv rewrites argument arg's string bytes in every process of a
// resumed machine to s, zero-filling any tail left over from a longer
// snapshotted value (oldLen bytes, NUL excluded), and updates the
// recorded argv region. Forked processes carry copy-on-write duplicates
// of the argv block, so each one must be rewritten — sound because the
// caller's divergence analysis guarantees no process observed those
// bytes before the snapshot. The argument's address is unchanged —
// callers only patch the final argument (or equal-length ones), so the
// string block layout is preserved.
func (m *Machine) PatchArgv(arg int, s string, oldLen int) error {
	if arg < 0 || arg >= len(m.argv) {
		return fmt.Errorf("gos: no argv%d region", arg)
	}
	if m.procs[1] == nil {
		return fmt.Errorf("gos: no root process")
	}
	addr := m.argv[arg].Addr
	for _, p := range m.procs {
		p.mem.WriteCString(addr, s)
		for i := len(s) + 1; i <= oldLen; i++ {
			p.mem.StoreByte(addr+uint64(i), 0)
		}
	}
	m.argv[arg].Len = len(s) + 1
	m.cfg.Argv[arg] = s
	return nil
}
