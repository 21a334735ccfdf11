// Command bench is the repository's one benchmark. It runs five workloads
// against the futures runtime, its job layer, the shard pool and the
// analysis pipeline, checks every output, and prints the metrics that
// BENCHMARK.json lists. README.md in this directory has the catalogue.
//
//	go run ./bench                                   all workloads, untraced
//	go run ./bench -workload fj-fine -seed 11        one workload
//	go run ./bench -workload serve-pool -trace 1     the per-layer ladder
//	go run ./bench -aa                               the suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// fullSeconds is the measured time of a full-length run, the default of
// -seconds and the run_seconds of BENCHMARK.json.
const fullSeconds = 15

type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    int
	aa       bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	flag.Int64Var(&o.seed, "seed", 7, "workload seed: arrival schedules, job kinds and random shapes derive from it")
	flag.Float64Var(&o.seconds, "seconds", fullSeconds, "measured seconds per workload")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies every duration")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans and print the per-layer metrics; 0: print the end-to-end metrics")
	flag.BoolVar(&o.aa, "aa", false, "run the suite twice on this binary and compare the two against the bounds")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for span files")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes what o asks for and reports whether every check passed.
func run(o options, out io.Writer) (bool, error) {
	wls := suite()
	if o.workload != "" {
		wl, found := findWorkload(o.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		wls = []workload{wl}
	}
	printProvenance(out, o)
	if o.aa {
		return runAA(o, wls, out)
	}
	allOK := true
	for _, wl := range wls {
		res, err := runOne(o, wl, out)
		if err != nil {
			return false, err
		}
		allOK = allOK && res.failed == 0
	}
	return allOK, nil
}

func (o options) env(tr *tracer) *env {
	return &env{seed: o.seed, seconds: o.seconds * o.scale, workers: workerCount(), tr: tr}
}

// runOne runs one workload as -trace says, prints its report and, last, the
// one-line JSON result.
func runOne(o options, wl workload, out io.Writer) (*result, error) {
	var res *result
	var err error
	if o.trace == 1 {
		res, err = runTraced(o, wl, out)
	} else {
		res, err = runWorkload(wl, o.env(nil))
	}
	if err != nil {
		return nil, err
	}
	printReport(out, res, o.trace == 1)
	return res, printResultLine(out, res, o.trace == 1)
}

// reported returns the metrics a run prints: the per-layer ones when traced,
// else the end-to-end ones.
func (r *result) reported(traced bool) ([]metricDef, map[string]float64) {
	if traced {
		return perLayer, r.layer
	}
	return endToEnd, r.e2e
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResultLine prints the run's result as one JSON object. Every metric
// of defs must have been measured: a missing one is a bug in the benchmark
// and is reported as such, never printed as zero.
func printResultLine(out io.Writer, res *result, traced bool) error {
	defs, values := res.reported(traced)
	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || v != v {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func printProvenance(out io.Writer, o options) {
	w := workerCount()
	fmt.Fprintf(out, "# bench: nproc=%d W=%d go=%s cpu=%q seed=%d seconds=%g commit=%s\n",
		runtime.NumCPU(), w, runtime.Version(), cpuModel(), o.seed, o.seconds*o.scale, commit())
	for _, wl := range suite() {
		fmt.Fprintf(out, "#   %-13s GOMAXPROCS=%d\n", wl.name, w+wl.spareP)
	}
}

func printReport(out io.Writer, res *result, traced bool) {
	fmt.Fprintf(out, "\n== %s  GOMAXPROCS=%d  verdict: %s  (%d attempted, %d failed)\n",
		res.workload, res.gomaxprocs, res.verdict, res.attempted, res.failed)
	fmt.Fprintf(out, "   host calibration kernel: p50 %.3f ms, spread %.3f (too noisy above %.2f)\n",
		res.layer["host.cal_ms_p50"], res.layer["host.cal_spread"], calSpreadMax)
	if res.degenerate {
		fmt.Fprintf(out, "   DEGENERATE: %d workers and no steal in the measured phase\n", workerCount())
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "   %s\n", n)
	}
	defs, values := res.reported(traced)
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Fprintf(out, "   %-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}
