package runtime

import (
	"testing"

	"futurelocality/internal/topology"
)

// synth builds the synthetic topology spec or fails the test.
func synth(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	topo, err := topology.Synthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestWithTopologyWiring: a 2x2 synthetic topology at 4 workers surfaces
// through Topology and MetricsMap and splits nothing: every worker's victims
// are all three others, and the steal count has one total.
func TestWithTopologyWiring(t *testing.T) {
	rt := New(WithWorkers(4), WithTopology(synth(t, "2x2")))
	defer rt.Shutdown()
	if src := rt.Topology().Source; src != "synthetic:2x2" {
		t.Fatalf("Topology().Source = %q", src)
	}
	for _, w := range rt.workers {
		if len(w.victims) != 3 {
			t.Fatalf("worker %d: %d victims, want the 3 others", w.id, len(w.victims))
		}
		for _, v := range w.victims {
			if v == w {
				t.Fatalf("worker %d is its own victim", w.id)
			}
		}
	}
	m := rt.MetricsMap()
	if m["topology_source"] != "synthetic:2x2" {
		t.Fatalf("MetricsMap topology_source = %v", m["topology_source"])
	}
	if _, ok := m["steals"]; !ok {
		t.Error("MetricsMap lacks \"steals\"")
	}
	if _, ok := m["domains"]; ok {
		t.Error("MetricsMap still reports a domain count")
	}
}

// TestDefaultTopologyFlatSafe: without WithTopology the runtime reports the
// host hierarchy it detected (or the flat fallback) and still runs.
func TestDefaultTopologyFlatSafe(t *testing.T) {
	rt := New(WithWorkers(3))
	defer rt.Shutdown()
	if topo := rt.Topology(); topo == nil || topo.NumDomains() < 1 {
		t.Fatalf("Topology() = %v", topo)
	}
	if got := Run(rt, func(w *W) int { return profFib(rt, w, 15) }); got != 610 {
		t.Fatalf("fib(15) = %d", got)
	}
}
