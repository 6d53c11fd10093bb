// Command concolic runs a concolic-execution tool profile against a logic
// bomb (or any LBF image with a `bomb` symbol), directed at detonating it,
// and reports the verdict with the paper's outcome labels.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bombs"
	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/tools"
)

func main() {
	tool := flag.String("tool", "reference",
		"profile: "+strings.Join(tools.Names(), ", "))
	verbose := flag.Bool("v", false, "print incidents and per-round progress")
	stats := flag.Bool("stats", false, "print the engine work profile (rounds, queries, cache, wall time)")
	timeout := flag.Duration("timeout", 0,
		"wall-clock deadline for the whole analysis (0 = profile budget only); "+
			"exercises the same context-cancellation path as concolicd")
	opts := cliopts.Register(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: concolic [-tool name] [-timeout d] <bomb-name>")
		os.Exit(2)
	}
	b, ok := bombs.ByName(flag.Arg(0))
	if !ok {
		msg := fmt.Sprintf("concolic: no bomb named %q", flag.Arg(0))
		if s := bombs.Closest(flag.Arg(0)); s != "" {
			msg += fmt.Sprintf(" — did you mean %q?", s)
		}
		fmt.Fprintln(os.Stderr, msg+" (run cmd/bombs for the list)")
		os.Exit(1)
	}
	p, ok := tools.ByName(*tool)
	if !ok {
		fmt.Fprintf(os.Stderr, "concolic: unknown tool %q (choose from %s)\n",
			*tool, strings.Join(tools.Names(), ", "))
		os.Exit(1)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := opts.Resolve(cliopts.FlagDialect)
	if err != nil {
		fmt.Fprintf(os.Stderr, "concolic: %v\n", err)
		var se *cliopts.StoreError
		if errors.As(err, &se) {
			os.Exit(1)
		}
		os.Exit(2)
	}
	defer res.Close()
	res.Apply(&p.Caps)
	en := core.New(b.Image(), b.BombAddr(), p.Caps)
	out := en.ExploreContext(ctx, b.Benign)

	fmt.Printf("tool=%s bomb=%s verdict=%s rounds=%d\n",
		p.Name(), b.Name, out.Verdict, out.Rounds)
	if out.Verdict == core.VerdictSolved {
		fmt.Printf("solving input: argv=%q", out.Input.Argv1)
		if out.Input.TimeNow != 0 {
			fmt.Printf(" time=%d", out.Input.TimeNow)
		}
		if out.Input.Pid != 0 {
			fmt.Printf(" pid=%d", out.Input.Pid)
		}
		for u, c := range out.Input.Web {
			fmt.Printf(" web[%s]=%q", u, c)
		}
		fmt.Println()
		res, err := b.Run(out.Input, bombs.WithMaxSteps(5_000_000))
		if err == nil {
			fmt.Printf("replay: triggered=%v stdout=%q\n", bombs.Triggered(res), res.Stdout)
		}
	}
	fmt.Printf("paper label: %s\n", cellLabel(out))
	if *stats {
		for _, f := range core.StatFields() {
			fmt.Printf("stats: %s=%s\n", f.Name, f.Format(&out.Stats))
		}
		fmt.Printf("stats: cache_hit_rate=%.4f intern_hit_rate=%.4f\n",
			out.Stats.CacheHitRate(), out.Stats.InternHitRate())
	}
	if *verbose {
		for _, in := range out.Incidents {
			fmt.Println("incident:", in)
		}
		for _, c := range out.Claims {
			fmt.Printf("claim: pc=%#x syscall-sim=%v\n", c.PC, c.Syscall)
		}
		if out.CrashDetail != "" {
			fmt.Println("detail:", out.CrashDetail)
		}
	}
}

func cellLabel(out *core.Outcome) string {
	o := eval.Classify(out)
	if o == "" {
		return "- (correctly unreachable)"
	}
	if o == bombs.OK {
		return "OK (solved)"
	}
	return string(o)
}
