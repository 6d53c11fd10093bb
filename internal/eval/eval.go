// Package eval is the experiment harness: it runs tool profiles against
// the logic-bomb benchmark, classifies each outcome with the paper's
// ✓/Es0–Es3/E/P labels (§V-B methodology), and renders Table I, Table II,
// the Figure 3 comparison and the extension study.
package eval

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/symexec"
	"repro/internal/tools"
)

// Classify maps an engine outcome to a Table II cell label.
//
// Rules, in order (mirroring the paper's §V-B):
//  1. A generated input that detonates the bomb on concrete replay: ✓.
//  2. Engine abort or exhausted budget: E (abnormal exit / timeout).
//  3. A feasibility claim resting on simulated system-call values the
//     tool cannot realize as input: P (partial success).
//  4. Otherwise the earliest recorded reasoning-error stage: Es0–Es3.
//     Secondary incidents — Es0 from the argv terminator byte and Es2
//     from input-length truncation — are side effects of byte-scanning
//     loops, and are reported only when no other error explains the
//     failure.
//  5. No incidents at all: the bomb was correctly deemed unreachable
//     (only the negative bomb should land here).
func Classify(out *core.Outcome) bombs.PaperOutcome {
	if out.Verdict == core.VerdictSolved {
		return bombs.OK
	}
	if out.Verdict == core.VerdictCrashed || out.Verdict == core.VerdictBudget ||
		out.Verdict == core.VerdictCancelled || out.Verdict == core.VerdictCoverGoal {
		// A cancelled analysis never reached a conclusion; like a crash or
		// budget exhaustion it is an abnormal exit. A coverage-goal stop is
		// a deliberate early exit and classifies the same way: the tool
		// quit before reaching the bomb.
		return bombs.E
	}
	for _, c := range out.Claims {
		if c.Syscall {
			return bombs.P
		}
	}
	var primary, secondary []symexec.Incident
	for _, in := range out.Incidents {
		if isSecondary(in) {
			secondary = append(secondary, in)
			continue
		}
		primary = append(primary, in)
	}
	pool := primary
	if len(pool) == 0 {
		pool = secondary
	}
	if len(pool) == 0 {
		return "" // correctly unreachable
	}
	min := pool[0].Stage
	for _, in := range pool {
		if in.Stage < min {
			min = in.Stage
		}
	}
	return bombs.PaperOutcome(min.String())
}

// isSecondary reports whether an incident is a side effect of byte-scan
// loops rather than a blocking capability gap.
func isSecondary(in symexec.Incident) bool {
	if in.Stage == symexec.StageEs0 && strings.Contains(in.Detail, "env!argv1") {
		return true
	}
	return in.Stage == symexec.StageEs2 && strings.Contains(in.Detail, "longer input")
}

// Cell is one Table II cell.
type Cell struct {
	Bomb string
	Tool string

	// Mechanical is the outcome produced by the capability model.
	Mechanical bombs.PaperOutcome
	// Got is the reported outcome (after any documented override).
	Got bombs.PaperOutcome
	// Overridden notes a modeled tool idiosyncrasy (see tools package).
	Overridden bool
	Note       string

	// Paper is the outcome recorded in the paper's Table II.
	Paper bombs.PaperOutcome
	Match bool

	Outcome *core.Outcome
}

// Grid is a completed Table II (or Table II-extended) run.
type Grid struct {
	// Title names the grid in rendered output ("TABLE II" when empty).
	Title string
	// HasPaper reports whether the rows carry paper outcomes to compare
	// against; the extended corpus has none.
	HasPaper bool
	Tools    []string
	Rows     []*bombs.Bomb
	Cells    map[string]map[string]*Cell // bomb -> tool -> cell
}

// Cell returns the cell for a bomb/tool pair.
func (g *Grid) Cell(bomb, tool string) *Cell {
	if m, ok := g.Cells[bomb]; ok {
		return m[tool]
	}
	return nil
}

// Matches counts cells agreeing with the paper.
func (g *Grid) Matches() (match, total int) {
	for _, row := range g.Cells {
		for _, c := range row {
			total++
			if c.Match {
				match++
			}
		}
	}
	return match, total
}

// RunCell evaluates one profile on one bomb.
func RunCell(b *bombs.Bomb, p tools.Profile, paperIdx int) *Cell {
	en := core.New(b.Image(), b.BombAddr(), p.Caps)
	out := en.Explore(b.Benign)
	mech := Classify(out)
	cell := &Cell{
		Bomb:       b.Name,
		Tool:       p.Name(),
		Mechanical: mech,
		Got:        mech,
		Outcome:    out,
	}
	if ov, ok := p.Overrides[b.Name]; ok {
		cell.Got = ov.Outcome
		cell.Overridden = true
		cell.Note = ov.Note
	}
	if paperIdx >= 0 {
		cell.Paper = b.Paper[paperIdx]
		cell.Match = cell.Got == cell.Paper
	}
	return cell
}

// Options configures one Table II evaluation.
type Options struct {
	// Workers bounds how many grid cells run concurrently
	// (<= 0: runtime.GOMAXPROCS(0)). Cells are independent — each builds
	// its own engine and solver cache — and results are assembled by
	// cell index, so the grid is identical at every worker count; only
	// the wall time changes.
	Workers int
	// EngineWorkers, when > 0, overrides each profile's per-engine
	// worker count (Capabilities.Workers); the grid-level Workers knob
	// above is independent of it.
	EngineWorkers int
	// Strategy, when non-empty, is a search strategy name
	// (core.SearchStrategyNames) that overrides each profile's own; ""
	// keeps every profile's default — only the Reference profile deviates
	// from generational. The coverage differential grid test asserts
	// labels never weaken under core.SearchCoverage. An unknown name
	// panics: frontends validate it first (cliopts.Check).
	Strategy string
	// Fuzz enables the hybrid mutation stage on every profile; it only
	// takes effect under core.SearchCoverage.
	Fuzz bool
	// CoverGoal, when in (0, 1], stops each engine early once that
	// fraction of static basic blocks has been covered.
	CoverGoal float64
}

// applyOptions overlays the evaluation options onto each profile.
func applyOptions(profiles []tools.Profile, opts Options) {
	var search core.SearchStrategy
	if opts.Strategy != "" {
		var err error
		if search, err = core.ParseSearchStrategy(opts.Strategy); err != nil {
			panic("eval: " + err.Error())
		}
	}
	for i := range profiles {
		if opts.EngineWorkers > 0 {
			profiles[i].Caps.Workers = opts.EngineWorkers
		}
		if opts.Strategy != "" {
			profiles[i].Caps.Search = search
		}
		profiles[i].Caps.Fuzz = opts.Fuzz
		if opts.CoverGoal > 0 {
			profiles[i].Caps.CoverGoal = opts.CoverGoal
		}
	}
}

// RunTableII evaluates the four Table II profiles over the 22 bombs
// under the given options; the zero Options value reproduces the
// historical defaults.
func RunTableII(opts Options) *Grid {
	profiles := tools.TableII()
	applyOptions(profiles, opts)
	g := runGrid(profiles, bombs.TableII(), opts.Workers, true)
	g.Title = "TABLE II"
	return g
}

// RunTableIIExtended evaluates the five extended-grid columns (the four
// paper profiles plus the reference engine) over the TIFS-2018 taxonomy
// corpus. The extended rows have no paper record, so cells carry no
// paper comparison.
func RunTableIIExtended(opts Options) *Grid {
	profiles := tools.TableIIExtended()
	applyOptions(profiles, opts)
	g := runGrid(profiles, bombs.TableIIExtended(), opts.Workers, false)
	g.Title = "TABLE II-EXTENDED"
	return g
}

// runGrid fans profile x bomb cells over a bounded worker pool. withPaper
// selects whether profile columns map to the rows' paper outcomes.
func runGrid(profiles []tools.Profile, rows []*bombs.Bomb, workers int, withPaper bool) *Grid {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Grid{HasPaper: withPaper, Cells: make(map[string]map[string]*Cell)}
	for _, p := range profiles {
		g.Tools = append(g.Tools, p.Name())
	}
	g.Rows = rows

	type job struct {
		b *bombs.Bomb
		p tools.Profile
		i int // paper column index, or -1 without a paper row
	}
	var jobs []job
	for _, b := range g.Rows {
		g.Cells[b.Name] = make(map[string]*Cell)
		for i, p := range profiles {
			paperIdx := i
			if !withPaper {
				paperIdx = -1
			}
			jobs = append(jobs, job{b: b, p: p, i: paperIdx})
		}
	}
	cells := make([]*Cell, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range idx {
				cells[j] = RunCell(jobs[j].b, jobs[j].p, jobs[j].i)
			}
		}()
	}
	for j := range jobs {
		idx <- j
	}
	close(idx)
	wg.Wait()
	for j, c := range cells {
		g.Cells[jobs[j].b.Name][jobs[j].p.Name()] = c
	}
	return g
}

// label renders a cell value the way the paper prints it.
func label(o bombs.PaperOutcome) string {
	switch o {
	case bombs.OK:
		return "OK"
	case "":
		return "-"
	default:
		return string(o)
	}
}

// RenderTableII prints the grid in the paper's layout, marking
// disagreements with the paper's recorded cell.
func RenderTableII(g *Grid) string {
	var b strings.Builder
	title := g.Title
	if title == "" {
		title = "TABLE II"
	}
	b.WriteString(title + ": tool performance on the logic bombs\n")
	if g.HasPaper {
		b.WriteString("(label = our result; [paper X] marks a deviation; * = modeled tool bug, see notes)\n\n")
	} else {
		b.WriteString("(label = our result; * = modeled tool bug, see notes)\n\n")
	}
	fmt.Fprintf(&b, "%-11s %-10s %-56s", "Challenge", "Bomb", "Case")
	for _, tname := range g.Tools {
		fmt.Fprintf(&b, " %-12s", tname)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 79+13*len(g.Tools)) + "\n")
	lastCh := ""
	for _, bomb := range g.Rows {
		ch := bomb.Challenge
		if ch == lastCh {
			ch = ""
		} else {
			lastCh = ch
		}
		fmt.Fprintf(&b, "%-11s %-10s %-56s", truncate(ch, 11), bomb.Name, truncate(bomb.Description, 56))
		for _, tname := range g.Tools {
			c := g.Cell(bomb.Name, tname)
			cell := label(c.Got)
			if c.Overridden {
				cell += "*"
			}
			if g.HasPaper && !c.Match {
				cell += fmt.Sprintf(" [paper %s]", label(c.Paper))
			}
			fmt.Fprintf(&b, " %-12s", cell)
		}
		b.WriteString("\n")
	}
	solved := make(map[string]int)
	for _, row := range g.Cells {
		for tname, c := range row {
			if c.Got == bombs.OK {
				solved[tname]++
			}
		}
	}
	b.WriteString("\nSolved cases: ")
	for i, tname := range g.Tools {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", tname, solved[tname])
	}
	if g.HasPaper {
		match, total := g.Matches()
		fmt.Fprintf(&b, "\nAgreement with the paper: %d/%d cells\n", match, total)
	} else {
		b.WriteString("\n")
	}

	var notes []string
	seen := map[string]bool{}
	for _, row := range g.Cells {
		for _, c := range row {
			if c.Overridden && !seen[c.Tool+c.Bomb] {
				seen[c.Tool+c.Bomb] = true
				notes = append(notes, fmt.Sprintf("* %s/%s: %s", c.Tool, c.Bomb, c.Note))
			}
		}
	}
	sort.Strings(notes)
	if len(notes) > 0 {
		b.WriteString("\nModeled tool idiosyncrasies:\n")
		for _, n := range notes {
			b.WriteString("  " + n + "\n")
		}
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// RenderTableI prints the challenge/error-stage mapping (the paper's
// Table I), derived from the challenge metadata.
func RenderTableI() string {
	order := []string{
		bombs.ChSymbolicDecl, bombs.ChCovertProp, bombs.ChParallel,
		bombs.ChSymbolicArray, bombs.ChContextual, bombs.ChSymbolicJump,
		bombs.ChFloat,
	}
	var b strings.Builder
	b.WriteString("TABLE I: challenges and the error stages they may incur\n\n")
	fmt.Fprintf(&b, "%-32s %-5s %-5s %-5s %-5s\n", "Challenge", "Es0", "Es1", "Es2", "Es3")
	b.WriteString(strings.Repeat("-", 56) + "\n")
	for _, ch := range order {
		stages := bombs.ChallengeStages[ch]
		marks := map[bombs.PaperOutcome]string{}
		for _, s := range stages {
			marks[s] = "x"
		}
		cell := func(s bombs.PaperOutcome) string {
			if marks[s] != "" {
				return "x"
			}
			return "-"
		}
		fmt.Fprintf(&b, "%-32s %-5s %-5s %-5s %-5s\n",
			ch, cell(bombs.Es0), cell(bombs.Es1), cell(bombs.Es2), cell(bombs.Es3))
	}
	return b.String()
}

// RenderDiagnostics prints the per-cell root-cause evidence: incidents,
// claims and abort details behind every non-solved Table II cell. This is
// the material of the paper's §V-C root-cause discussion.
func RenderDiagnostics(g *Grid) string {
	var b strings.Builder
	b.WriteString("PER-CELL DIAGNOSTICS (root causes behind Table II)\n")
	for _, bomb := range g.Rows {
		for _, tool := range g.Tools {
			c := g.Cell(bomb.Name, tool)
			if c == nil || c.Got == bombs.OK {
				continue
			}
			fmt.Fprintf(&b, "\n%s / %s -> %s (mechanical %s, %d rounds)\n",
				tool, bomb.Name, label(c.Got), label(c.Mechanical), c.Outcome.Rounds)
			if c.Outcome.CrashDetail != "" {
				fmt.Fprintf(&b, "    abort: %s\n", c.Outcome.CrashDetail)
			}
			for _, in := range c.Outcome.Incidents {
				fmt.Fprintf(&b, "    %s\n", in)
			}
			for _, cl := range c.Outcome.Claims {
				fmt.Fprintf(&b, "    claim at %#x (syscall simulation: %v)\n", cl.PC, cl.Syscall)
			}
			if c.Overridden {
				fmt.Fprintf(&b, "    override: %s\n", c.Note)
			}
		}
	}
	return b.String()
}
