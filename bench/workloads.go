package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

// A workload is one set of inputs the benchmark runs. Every workload is a
// list of ops; a pass runs the list once, in an order drawn from the seed.
type workload struct {
	name string
	why  string
	// fleet marks the workload whose ops are concolicd jobs rather than
	// in-process engine runs.
	fleet bool
	// golden names the golden-file section the ops are checked against;
	// empty means every op must be solved.
	golden string
	ops    func() []op
}

// op is one analysis: a bomb under a tool profile. Its cell name
// ("bomb/Tool") keys the golden file and the per-cell timings.
type op struct {
	cell    string
	bomb    *bombs.Bomb
	profile tools.Profile
	// paperIdx is the Table II column of the profile, or -1.
	paperIdx int
}

// toolName is the profile's concolicd/CLI name.
func (o op) toolName() string { return strings.ToLower(o.profile.Name()) }

var workloads = []*workload{
	{
		name:   "paper-grid",
		why:    "Table II plus Table II-extended under the stock profiles: the headline use, SAT-bound with a long tail of small cells",
		golden: "paper-grid",
		ops:    paperGridOps,
	},
	{
		name:   "coverage-fuzz",
		why:    "Angr-NoLib with coverage search and fuzzing over the corpus: test generation, bound by concrete execution",
		golden: "coverage-fuzz",
		ops:    coverageFuzzOps,
	},
	{
		name: "solver-ladder",
		why:  "factoring bombs of graded width under conflict budgets only: SAT-bound, verdicts independent of the wall clock",
		ops:  solverLadderOps,
	},
	{
		name:   "concolicd-fleet",
		why:    "the paper grid as concolicd jobs from 2 closed-loop clients: warm engine, shared query tier, journal writes",
		fleet:  true,
		golden: "paper-grid",
		ops:    paperGridOps,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (choose from %s)", name, strings.Join(names, ", "))
}

// timeoutDecided lists the Table II cells left out of the paper grid:
// srand and sha1 under BAP, Triton and Angr. The 2 s per-query
// SolverTimeout decides them, so their wall time measures the timeout,
// not the engine; they come back once verdicts rest on deterministic
// budgets only.
var timeoutDecided = map[string]bool{
	"srand/BAP": true, "srand/Triton": true, "srand/Angr": true,
	"sha1/BAP": true, "sha1/Triton": true, "sha1/Angr": true,
}

// pinned returns the profile with one engine worker, so the work of an op
// does not change with the machine's CPU count.
func pinned(p tools.Profile) tools.Profile {
	p.Caps.Workers = 1
	return p
}

func cellName(b *bombs.Bomb, p tools.Profile) string { return b.Name + "/" + p.Name() }

// paperGridOps is the Table II grid (minus the timeout-decided cells) and
// the whole Table II-extended grid, each cell under its stock profile as
// evaltable runs it.
func paperGridOps() []op {
	var ops []op
	for _, b := range bombs.TableII() {
		for i, p := range tools.TableII() {
			if !timeoutDecided[cellName(b, p)] {
				ops = append(ops, op{cellName(b, p), b, pinned(p), i})
			}
		}
	}
	for _, b := range bombs.TableIIExtended() {
		for _, p := range tools.TableIIExtended() {
			ops = append(ops, op{cellName(b, p), b, pinned(p), -1})
		}
	}
	return ops
}

// coverageFuzzOps runs every non-stress bomb as `concolic -tool angr-nolib
// -strategy coverage -fuzz` does. FuzzSeed keeps its zero value, so the
// mutation stream, and with it the covered edges, do not depend on the
// benchmark seed.
func coverageFuzzOps() []op {
	var ops []op
	for _, b := range bombs.All() {
		if b.Category == bombs.Stress {
			continue
		}
		p := pinned(tools.AngrNoLib())
		p.Caps.Search = core.SearchCoverage
		p.Caps.Fuzz = true
		ops = append(ops, op{cellName(b, p), b, p, -1})
	}
	return ops
}

// ladder lists the solver-ladder semiprimes: three products of two
// w-bit primes for each factor width w from 12 to 16. Every factor is at
// least 2^(w-1) > 255, so both of its little-endian argv bytes are
// non-zero. The instances are fixed rather than drawn from the seed: the
// solve time of random same-width semiprimes spans 20 ms to 3 s, and
// some draws exhaust the 40k-conflict budget, so drawn instances would
// make the pass time depend on the seed and some ops fail. These were
// picked from random draws so that the time per width grows with the
// width (about 0.3 s for the three 12-bit ones, 0.8 s for the 16-bit
// ones, on a 2-core Xeon); each solves within the budget.
var ladder = [][2]uint64{
	{3167, 3061}, {2339, 3847}, {2389, 3083}, // 12 bits
	{4229, 6079}, {6863, 5393}, {7417, 5437}, // 13 bits
	{8537, 12703}, {9277, 13339}, {15287, 9341}, // 14 bits
	{18059, 16703}, {25997, 24083}, {23357, 28219}, // 15 bits
	{41651, 63839}, {35537, 41887}, {58967, 58613}, // 16 bits
}

// factorSource is the factor26 stress bomb with the semiprime as a
// parameter: the factors are argv bytes 0-1 and 2-3, little-endian.
const factorSource = `
main:
    cmp r1, 2
    jl .out
    ld.q r12, [r2+8]
    mov r1, r12
    call strlen
    cmp r0, 4
    jne .out
    ld.b r3, [r12+0]
    ld.b r4, [r12+1]
    shl r4, 8
    or r3, r4
    ld.b r5, [r12+2]
    ld.b r6, [r12+3]
    shl r6, 8
    or r5, r6
    mul r3, r5
    cmp r3, %d
    jne .out
    call bomb
.out:
    mov r0, 0
    ret
`

// solverLadderOps builds the ladder bombs under the reference profile with
// the per-query wall-clock timeout off, so conflict budgets alone decide
// every query; the 10 min task budget is only a safety net.
func solverLadderOps() []op {
	p := pinned(tools.Reference())
	p.Caps.SolverTimeout = 0
	p.Caps.TotalBudget = 10 * time.Minute
	var ops []op
	for _, f := range ladder {
		a, b := f[0], f[1]
		bomb := &bombs.Bomb{
			Name:        fmt.Sprintf("factor%dx%d", a, b),
			Category:    bombs.Stress,
			Challenge:   bombs.ChHardSolve,
			Description: fmt.Sprintf("Factor %d (%d x %d) read from argv bytes", a*b, a, b),
			Source:      fmt.Sprintf(factorSource, a*b),
			Trigger:     bombs.Input{Argv1: string([]byte{byte(a), byte(a >> 8), byte(b), byte(b >> 8)})},
			Benign:      bombs.Input{Argv1: "aaaa"},
		}
		ops = append(ops, op{cellName(bomb, p), bomb, p, -1})
	}
	return ops
}

// passOrder returns the pass's ops in the order drawn from the seed. A
// fleet pass submits every paper-grid cell twice, in two independently
// shuffled rounds: the first with the query tier cold, the second reading
// what the first stored. Fixing the mix, instead of drawing jobs with
// replacement, keeps the heavy cells' share of a pass the same for every
// seed.
func passOrder(w *workload, seed int64, pass int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	rounds := 1
	if w.fleet {
		rounds = 2
	}
	var out []op
	for r := 0; r < rounds; r++ {
		ops := w.ops()
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		out = append(out, ops...)
	}
	return out
}
