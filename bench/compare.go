package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkDef is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// samples maps workload -> metric -> one value per recorded run.
type samples map[string]map[string][]float64

func readRecords(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if s[rec.Workload] == nil {
			s[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			s[rec.Workload][name] = append(s[rec.Workload][name], m.Value)
		}
	}
	return s, sc.Err()
}

// compareMain prints, per workload and metric, each side's median and
// quartiles over its recorded runs, and flags every end-to-end metric
// whose median moved from the first side's by more than its bound. It
// returns 1 when anything is flagged.
//
//	bench compare [-bench BENCHMARK.json] BASE.jsonl OTHER.jsonl...
//
// The files are written by runs with -record.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bench BENCHMARK.json] BASE.jsonl OTHER.jsonl...")
		return 2
	}
	def, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	var sides []samples
	for _, path := range fs.Args() {
		s, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 1
		}
		sides = append(sides, s)
	}
	bound := map[string]float64{}
	lowerIsBetter := map[string]bool{}
	for _, m := range def.EndToEnd {
		bound[m.Name] = m.Bound
		lowerIsBetter[m.Name] = m.Better == "lower"
	}

	flagged := 0
	for _, w := range def.Workloads {
		names := map[string]bool{}
		for _, s := range sides {
			for n := range s[w.Name] {
				names[n] = true
			}
		}
		ordered := make([]string, 0, len(names))
		for n := range names {
			ordered = append(ordered, n)
		}
		sort.Slice(ordered, func(i, j int) bool {
			_, ei := bound[ordered[i]]
			_, ej := bound[ordered[j]]
			if ei != ej {
				return ei // end-to-end metrics first
			}
			return ordered[i] < ordered[j]
		})
		for _, n := range ordered {
			fmt.Fprintf(out, "%-16s %-32s", w.Name, n)
			base := median(sides[0][w.Name][n])
			verdict := ""
			for i, s := range sides {
				xs := s[w.Name][n]
				q1, q3 := quartiles(xs)
				fmt.Fprintf(out, "  [%d] %.4g (%.4g..%.4g, n=%d)", i, median(xs), q1, q3, len(xs))
				b, hasBound := bound[n]
				if i == 0 || !hasBound || len(xs) == 0 || base == 0 {
					continue
				}
				if d := median(xs)/base - 1; math.Abs(d) > b {
					dir := "better"
					if (d > 0) == lowerIsBetter[n] {
						dir = "worse"
					}
					verdict += fmt.Sprintf("  FLAG [%d] %+.1f%% %s (bound %.0f%%)", i, 100*d, dir, 100*b)
					flagged++
				}
			}
			fmt.Fprintln(out, verdict)
		}
	}
	fmt.Fprintf(out, "%d end-to-end metric x workload pairs flagged\n", flagged)
	if flagged > 0 {
		return 1
	}
	return 0
}
