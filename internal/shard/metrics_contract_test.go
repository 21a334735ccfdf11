package shard

import (
	"os"
	"strings"
	"testing"

	"futurelocality/internal/runtime"
)

// contractLines reduces an exposition page to what a dashboard depends on:
// every # HELP and # TYPE line verbatim, every sample line with its value
// replaced by N, and each histogram's run of bucket lines collapsed to one
// (how many buckets are populated depends on how long the jobs took).
func contractLines(page string) string {
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] + " N"
			if i := strings.Index(line, `_bucket{le="`); i >= 0 {
				line = line[:i] + `_bucket{le="…"} N`
				if len(out) > 0 && out[len(out)-1] == line {
					continue
				}
			}
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// metricsContract renders both exposition pages — a 2-shard pool on a
// synthetic 2x2 and one plain one-domain runtime, flight recorders on, each
// member having run a forking job — reduced by contractLines.
func metricsContract(t *testing.T) string {
	t.Helper()
	forking := func(w *runtime.W) int {
		f := runtime.Spawn(w.Runtime(), w, func(*runtime.W) int { return 1 })
		return f.Touch(w) + 1
	}
	var sb strings.Builder

	p := NewPool(WithTopology(synth(t, "2x2")), WithWorkers(4),
		WithRuntimeOptions(runtime.WithFlightRecorder(0)))
	defer shutdown(t, p)
	for s := 0; s < p.Shards(); s++ {
		key := keyFor(t, p, s)
		for i := 0; i < 3; i++ {
			j, err := SubmitKeyed(p, key, forking)
			if err != nil {
				t.Fatal(err)
			}
			j.Wait()
		}
	}
	sb.WriteString("# == Pool.WriteMetrics\n")
	if err := p.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}

	rt := runtime.New(runtime.WithWorkers(2), runtime.WithFlightRecorder(0))
	defer shutdown(t, rt)
	for i := 0; i < 3; i++ {
		j, err := runtime.Submit(rt, forking)
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
	}
	sb.WriteString("# == Runtime.WriteMetrics\n")
	if err := rt.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	return contractLines(sb.String())
}

// TestMetricsContract pins both /metrics pages — families, their order,
// help text, types and label sets — against a golden recorded before the
// pages were rendered from one table. A deliberate change to the contract
// regenerates testdata/metrics_contract.golden from this function's output.
func TestMetricsContract(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_contract.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := metricsContract(t)
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("metrics contract differs at line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
}
