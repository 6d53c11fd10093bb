package main

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runData is everything one measurement of a workload collected.
type runData struct {
	setups   []float64 // set-up times at the reference host speed, in seconds
	untraced []*passResult
	// traced passes profile their CPU; the first one also carries the
	// layer probe, and cpu holds its profile's seconds per layer.
	traced []*passResult
	cpu    map[string]float64
}

type metricDef struct {
	name, unit string
	value      func(*runData) float64
}

// endToEnd are what a user of the engine sees, measured untraced. Times
// are at the reference host speed (see calib.go) and take medians. The
// tail is the 90th percentile, the highest that leaves at least ten ops
// beyond it in a run of the ladder, the workload with the fewest ops.
var endToEnd = []metricDef{
	{"setup_s", "s", func(d *runData) float64 { return median(d.setups) }},
	{"pass_s", "s", func(d *runData) float64 { return median(perPass(d.untraced, scaledWall)) }},
	{"cell_geomean_ms", "ms", cellGeomean},
	{"op_p90_ms", "ms", func(d *runData) float64 { return quantile(opMS(d.untraced), 0.9) }},
	{"peak_rss_mb", "MB", func(d *runData) float64 {
		return median(perPass(d.untraced, func(p *passResult) float64 { return float64(p.MaxRSSKB) })) / 1024
	}},
}

// perLayer are measured in the traced run: counts from the engine's own
// reports, CPU shares from the profile, and timings from the layer probe.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.profile_cpu_s", "s", profileCPU},
		{"bench.profile_coverage_ratio", "ratio", func(d *runData) float64 { return ratio(profileCPU(d), first(d).ProfileCPUS) }},
		{"bench.trace_overhead_ratio", "ratio", func(d *runData) float64 {
			return ratio(median(perPass(d.traced, scaledWall)), median(perPass(d.untraced, scaledWall)))
		}},
	}
	for _, l := range layerNames {
		defs = append(defs, metricDef{l + ".cpu_pct", "%", func(d *runData) float64 { return 100 * ratio(d.cpu[l], profileCPU(d)) }})
	}
	return append(defs, []metricDef{
		{"core.rounds", "count", sumOps(func(r opResult) float64 { return float64(r.Rounds) })},
		{"core.round_p50_us", "us", func(d *runData) float64 { return quantile(roundUS(d), 0.5) }},
		{"core.round_p99_us", "us", func(d *runData) float64 { return quantile(roundUS(d), 0.99) }},
		{"core.resume_ratio", "ratio", ratioOps(
			func(r opResult) float64 { return float64(r.Resumes) },
			func(r opResult) float64 { return float64(r.Rounds) })},
		{"core.fuzz_execs_per_s", "1/s", func(d *runData) float64 {
			return ratio(sumOps(func(r opResult) float64 { return float64(r.FuzzExecs) })(d), first(d).WallS)
		}},
		{"core.promote_ratio", "ratio", ratioOps(
			func(r opResult) float64 { return float64(r.FuzzPromoted) },
			func(r opResult) float64 { return float64(r.FuzzExecs) })},
		{"gos.instr", "count", func(d *runData) float64 { return float64(probe(d).Steps) }},
		{"gos.instr_per_s", "1/s", func(d *runData) float64 { return ratio(float64(probe(d).Steps), probe(d).GosS) }},
		{"gos.run_p50_us", "us", func(d *runData) float64 { return median(probe(d).GosUS) }},
		{"gos.cow_pages", "count", sumOps(func(r opResult) float64 { return float64(r.COWPages) })},
		{"cover.edges", "count", sumOps(func(r opResult) float64 { return float64(r.Edges) })},
		{"symexec.entries_per_s", "1/s", func(d *runData) float64 { return ratio(float64(probe(d).Entries), probe(d).SymexecS) }},
		{"symexec.run_p50_us", "us", func(d *runData) float64 { return median(probe(d).SymexecUS) }},
		{"symexec.constraints", "count", func(d *runData) float64 { return float64(probe(d).Constraints) }},
		{"sym.intern_hit_ratio", "ratio", func(d *runData) float64 {
			p := first(d)
			return ratio(float64(p.InternHits), float64(p.InternHits+p.InternMisses))
		}},
		{"sym.arena_nodes", "count", func(d *runData) float64 { return float64(first(d).ArenaNodes) }},
		{"solver.queries", "count", sumOps(func(r opResult) float64 { return float64(r.Queries) })},
		{"solver.queries_per_s", "1/s", func(d *runData) float64 {
			return ratio(sumOps(func(r opResult) float64 { return float64(r.Queries) })(d), first(d).WallS)
		}},
		{"solver.cache_hit_ratio", "ratio", ratioOps(
			func(r opResult) float64 { return float64(r.CacheHits) },
			func(r opResult) float64 { return float64(r.CacheHits + r.CacheMisses) })},
		{"solver.solve_p50_us", "us", func(d *runData) float64 { return median(probe(d).SolveUS) }},
		{"solver.solve_p99_us", "us", func(d *runData) float64 { return quantile(probe(d).SolveUS, 0.99) }},
		{"solver.unknown_ratio", "ratio", func(d *runData) float64 {
			return ratio(float64(probe(d).Unknown), float64(len(probe(d).SolveUS)))
		}},
		{"bitblast.gates", "count", func(d *runData) float64 { return float64(probe(d).Gates) }},
		{"bitblast.encode_p50_us", "us", func(d *runData) float64 { return median(probe(d).EncodeUS) }},
		{"sat.conflicts", "count", func(d *runData) float64 { return float64(probe(d).Conflicts) }},
		{"sat.conflicts_per_s", "1/s", func(d *runData) float64 { return ratio(float64(probe(d).Conflicts), probe(d).SatS) }},
		{"sat.propagations_per_s", "1/s", func(d *runData) float64 { return ratio(float64(probe(d).Props), probe(d).SatS) }},
		{"service.queue_wait_ratio", "ratio", jobShare(func(r opResult) float64 { return r.QueueMS })},
		{"service.overhead_ratio", "ratio", jobShare(func(r opResult) float64 { return r.MS - r.QueueMS - r.RunMS })},
		{"service.sharedcache_hit_ratio", "ratio", ratioOps(
			func(r opResult) float64 { return float64(r.SharedHits) },
			func(r opResult) float64 { return float64(r.SharedHits + r.SharedMisses) })},
		{"service.journal_bytes", "B", func(d *runData) float64 { return float64(first(d).JournalBytes) }},
		{"runtime.gc_cpu_s", "s", func(d *runData) float64 { return first(d).GCCPUS }},
		{"runtime.alloc_mb", "MB", func(d *runData) float64 { return float64(first(d).AllocBytes) / (1 << 20) }},
	}...)
}()

func first(d *runData) *passResult { return d.traced[0] }

func probe(d *runData) *probeResult {
	if p := first(d).Probe; p != nil {
		return p
	}
	return &probeResult{}
}

func profileCPU(d *runData) float64 {
	var total float64
	for _, s := range d.cpu {
		total += s
	}
	return total
}

func perPass(ps []*passResult, f func(*passResult) float64) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, f(p))
	}
	return out
}

func scaledWall(p *passResult) float64 { return p.WallS * p.Scale }

// opMS is every op's time at the reference host speed.
func opMS(ps []*passResult) []float64 {
	var out []float64
	for _, p := range ps {
		for _, r := range p.Ops {
			out = append(out, r.MS*p.Scale)
		}
	}
	return out
}

// cellGeomean weighs every cell alike: the geometric mean, over cells, of
// each cell's median time in the run.
func cellGeomean(d *runData) float64 {
	byCell := map[string][]float64{}
	for _, p := range d.untraced {
		for _, r := range p.Ops {
			byCell[r.Cell] = append(byCell[r.Cell], r.MS*p.Scale)
		}
	}
	var medians []float64
	for _, ms := range byCell {
		medians = append(medians, median(ms))
	}
	return geomean(medians)
}

func roundUS(d *runData) []float64 {
	var out []float64
	for _, r := range first(d).Ops {
		out = append(out, r.RoundUS...)
	}
	return out
}

// sumOps sums an op counter over the first traced pass.
func sumOps(f func(opResult) float64) func(*runData) float64 {
	return func(d *runData) float64 {
		var s float64
		for _, r := range first(d).Ops {
			s += f(r)
		}
		return s
	}
}

func ratioOps(num, den func(opResult) float64) func(*runData) float64 {
	return func(d *runData) float64 { return ratio(sumOps(num)(d), sumOps(den)(d)) }
}

// jobShare is the median, over the service's jobs, of a part of a job's
// latency as a share of the whole. Ops that did not run as jobs have no
// service timestamps and are skipped.
func jobShare(part func(opResult) float64) func(*runData) float64 {
	return func(d *runData) float64 {
		var shares []float64
		for _, r := range first(d).Ops {
			if r.RunMS > 0 {
				shares = append(shares, part(r)/r.MS)
			}
		}
		return median(shares)
	}
}

// evaluate computes the named metrics.
func evaluate(defs []metricDef, d *runData) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, m := range defs {
		out[m.name] = metric{Value: m.value(d), Unit: m.unit}
	}
	return out
}
