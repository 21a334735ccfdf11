// Command paperbench regenerates every experiment of the reproduction
// (E1–E16 in DESIGN.md) and emits the markdown tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	paperbench                  # all experiments, full scale
//	paperbench -scale quick     # fast smoke run
//	paperbench -exp E2,E16      # a subset
//	paperbench -o EXPERIMENTS.body.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"futurelocality/internal/experiments"
)

func main() {
	var (
		scale = flag.String("scale", "full", "quick | full")
		exps  = flag.String("exp", "all", "comma-separated experiment ids (E1..E16) or all")
		out   = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown scale %q\n", *scale)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, e := range experiments.Registry {
		want[e.ID] = *exps == "all"
	}
	if *exps != "all" {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := want[id]; !ok {
				fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", id)
				os.Exit(1)
			}
			want[id] = true
		}
	}

	var results []experiments.Result
	for _, e := range experiments.Registry {
		if !want[e.ID] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "paperbench: running %s...", e.ID)
		results = append(results, e.Run(sc))
		fmt.Fprintf(os.Stderr, " done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	body := experiments.Render(results)
	if *out == "" {
		fmt.Print(body)
		return
	}
	if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
