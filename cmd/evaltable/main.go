// Command evaltable regenerates the paper's tables and figures: Table I
// (challenge/error-stage mapping), Table II (tool performance on the 22
// logic bombs), the Figure 3 external-call comparison, the §V-C negative
// bomb study, and the reference-engine extension table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliopts"
	"repro/internal/eval"
)

func main() {
	table1 := flag.Bool("table1", false, "render Table I")
	table2 := flag.Bool("table2", false, "render Table II")
	fig3 := flag.Bool("fig3", false, "render the Figure 3 comparison")
	negative := flag.Bool("negative", false, "render the negative-bomb study")
	reference := flag.Bool("reference", false, "render the reference-engine extension table")
	extended := flag.Bool("extended", false,
		"render Table II-extended (the TIFS-2018 taxonomy corpus; composes with -json, -diag, -fleet and the grid knobs)")
	extras := flag.Bool("extras", false, "render the extension-bomb study (loop, retjump, array3)")
	diag := flag.Bool("diag", false, "with -table2: print per-cell root-cause diagnostics")
	jsonOut := flag.Bool("json", false, "emit the Table II grid plus aggregate engine stats as JSON and exit")
	fleet := flag.String("fleet", "",
		"comma-separated concolicd base URLs; the Table II grid runs as fleet jobs instead of in-process engines")
	all := flag.Bool("all", false, "render everything")
	opts := cliopts.Register(flag.CommandLine)
	flag.Parse()

	res, err := opts.Resolve(cliopts.FlagDialect)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evaltable: %v\n", err)
		os.Exit(2)
	}
	runTableII := func() *eval.Grid {
		if *fleet != "" {
			var endpoints []string
			for _, e := range strings.Split(*fleet, ",") {
				if e = strings.TrimSpace(e); e != "" {
					endpoints = append(endpoints, strings.TrimRight(e, "/"))
				}
			}
			run := eval.RunTableIIFleet
			if *extended {
				run = eval.RunTableIIExtendedFleet
			}
			g, err := run(eval.FleetOptions{
				Strategy: opts.Strategy, Fuzz: res.Fuzz, CoverGoal: res.CoverGoal,
			}, endpoints)
			if err != nil {
				fmt.Fprintf(os.Stderr, "evaltable: %v\n", err)
				os.Exit(1)
			}
			return g
		}
		eopts := eval.Options{
			Workers:  res.Workers,
			Strategy: opts.Strategy, Fuzz: res.Fuzz, CoverGoal: res.CoverGoal,
		}
		if *extended {
			return eval.RunTableIIExtended(eopts)
		}
		return eval.RunTableII(eopts)
	}

	if *jsonOut {
		g := runTableII()
		out, err := eval.MarshalGrid(g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(out, '\n'))
		return
	}

	if !*table1 && !*table2 && !*fig3 && !*negative && !*reference && !*extras && !*extended {
		*all = true
	}
	if *all || *table1 {
		fmt.Println(eval.RenderTableI())
	}
	if *all || *table2 || *extended {
		g := runTableII()
		fmt.Println(eval.RenderTableII(g))
		if *diag {
			fmt.Println(eval.RenderDiagnostics(g))
		}
	}
	if *all || *fig3 {
		r, err := eval.RunFig3()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig3:", err)
			os.Exit(1)
		}
		fmt.Println(eval.RenderFig3(r))
	}
	if *all || *negative {
		fmt.Println(eval.RenderNegativeStudy(eval.RunNegativeStudy()))
	}
	if *all || *reference {
		fmt.Println(eval.RenderReference(eval.RunReference()))
	}
	if *all || *extras {
		rows := eval.RunExtensionBombs()
		fmt.Println("EXTENSION BOMBS (beyond the paper's benchmark)")
		fmt.Println()
		for _, r := range rows {
			fmt.Printf("%-10s %-8s rounds=%-3d input=%q\n", r.Bomb, string(r.Outcome), r.Rounds, r.Input.Argv1)
		}
	}
}
