// Command congolic turns the concolic engine into a test-input
// generator for real Go code: it loads a Go package, lowers a chosen
// function to the guest ISA with every panic routed to the canonical
// `bomb` symbol, and directs the unmodified engine at it. A solved
// verdict decodes back into a Go argument tuple, which is replayed both
// on the lowered machine image and through the source-level reference
// evaluator — the two must agree.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliopts"
	"repro/internal/gofront"
	"repro/internal/tools"
)

func main() {
	tool := flag.String("tool", "reference",
		"profile: "+strings.Join(tools.Names(), ", "))
	timeout := flag.Duration("timeout", 0,
		"wall-clock deadline for the whole analysis (0 = profile budget only)")
	list := flag.Bool("list", false, "list the package's exported functions and exit")
	opts := cliopts.Register(flag.CommandLine)
	flag.Parse()

	if flag.NArg() < 1 || (!*list && flag.NArg() != 2) {
		fmt.Fprintln(os.Stderr, "usage: congolic [-tool name] [-timeout d] <package-dir> <Func>")
		fmt.Fprintln(os.Stderr, "       congolic -list <package-dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)
	pkg, err := gofront.Load(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "congolic: %v\n", err)
		os.Exit(1)
	}
	if *list {
		for _, n := range pkg.Exported() {
			fmt.Println(n)
		}
		return
	}

	p, err := tools.Lookup(*tool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "congolic: %v\n", err)
		os.Exit(1)
	}
	if err := opts.Check(cliopts.FlagDialect); err != nil {
		fmt.Fprintf(os.Stderr, "congolic: %v\n", err)
		os.Exit(2)
	}
	opts.Apply(&p.Caps)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	out, err := gofront.SolvePackage(ctx, pkg, flag.Arg(1), p.Caps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "congolic: %v\n", err)
		os.Exit(1)
	}
	var b strings.Builder
	gofront.Render(&b, out)
	fmt.Print(b.String())
	if !out.Agreed() {
		fmt.Fprintln(os.Stderr, "congolic: machine and source semantics disagree on the solved input")
		os.Exit(1)
	}
}
