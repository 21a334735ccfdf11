package main

import (
	"fmt"
	"io"
)

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaVerdict judges one metric of one workload across two runs of the same
// binary. The two runs differ in nothing but time and order, so a
// difference beyond the metric's own bound means the bound cannot tell a
// regression from this machine's noise.
func aaVerdict(d metricDef, a, b float64, noisy bool) string {
	switch {
	case max(worseBy(d, a, b), worseBy(d, b, a)) <= d.bound:
		return "agree"
	case noisy:
		// The host was unsteady during one of the runs, so the difference
		// says nothing about the bound.
		return "too noisy"
	default:
		return "exceeds"
	}
}

// runAA runs the workloads twice, the second time in reverse order so that
// neither run always has the warmer machine, and prints the comparison.
func runAA(o options, wls []workload, out io.Writer) (bool, error) {
	first := make(map[string]*result, len(wls))
	second := make(map[string]*result, len(wls))
	for pass, into := range []map[string]*result{first, second} {
		for i := range wls {
			wl := wls[i]
			if pass == 1 {
				wl = wls[len(wls)-1-i]
			}
			res, err := runWorkload(wl, o.env(nil))
			if err != nil {
				return false, err
			}
			printReport(out, res, false)
			into[wl.name] = res
		}
	}

	ok := true
	fmt.Fprintf(out, "\n| workload | metric | run A | run B | worse by | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	for _, wl := range wls {
		a, b := first[wl.name], second[wl.name]
		ok = ok && a.failed == 0 && b.failed == 0
		noisy := a.verdict == "too noisy" || b.verdict == "too noisy"
		for _, d := range endToEnd {
			va, vb := a.e2e[d.name], b.e2e[d.name]
			v := aaVerdict(d, va, vb, noisy)
			ok = ok && v != "exceeds"
			fmt.Fprintf(out, "| %s | %s | %.5g | %.5g | %.1f %% | %.0f %% | %s |\n",
				wl.name, d.name, va, vb, 100*max(worseBy(d, va, vb), worseBy(d, vb, va)), 100*d.bound, v)
		}
	}
	return ok, nil
}
