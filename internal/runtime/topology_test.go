package runtime

import (
	"strings"
	"testing"

	"futurelocality/internal/profile"
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

// TestWithTopologyWiring: a 2x2 synthetic topology at 4 workers stripes the
// workers [0 0 1 1], surfaces through the accessors and MetricsMap, and
// precomputes each worker's peer/remote victim tiers.
func TestWithTopologyWiring(t *testing.T) {
	rt := New(WithWorkers(4), WithTopology(synth(t, "2x2")))
	defer rt.Shutdown()
	if got := rt.NumDomains(); got != 2 {
		t.Fatalf("NumDomains = %d, want 2", got)
	}
	want := []int{0, 0, 1, 1}
	got := rt.DomainAssignment()
	if len(got) != len(want) {
		t.Fatalf("DomainAssignment = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DomainAssignment = %v, want %v", got, want)
		}
	}
	if src := rt.Topology().Source; src != "synthetic:2x2" {
		t.Fatalf("Topology().Source = %q", src)
	}
	for _, w := range rt.workers {
		if len(w.peers) != 1 || len(w.remote) != 2 {
			t.Fatalf("worker %d: %d peers, %d remote — want 1 and 2", w.id, len(w.peers), len(w.remote))
		}
		if w.peers[0].domain != w.domain {
			t.Fatalf("worker %d: peer in domain %d, self in %d", w.id, w.peers[0].domain, w.domain)
		}
	}
	m := rt.MetricsMap()
	if m["domains"] != 2 {
		t.Fatalf("MetricsMap domains = %v, want 2", m["domains"])
	}
	if m["topology_source"] != "synthetic:2x2" {
		t.Fatalf("MetricsMap topology_source = %v", m["topology_source"])
	}
	// The steal count has one total and one split, by locality.
	for _, key := range []string{"steals", "steals_intra_domain", "steals_cross_domain"} {
		if _, ok := m[key]; !ok {
			t.Errorf("MetricsMap lacks %q", key)
		}
	}
	for key := range m {
		if strings.HasPrefix(key, "steals_") && key != "steals_intra_domain" && key != "steals_cross_domain" {
			t.Errorf("MetricsMap has a per-policy steal key %q", key)
		}
	}
}

// TestDefaultTopologyFlatSafe: without WithTopology the runtime detects the
// host hierarchy (or falls back flat) and still runs; every worker lands in
// a valid domain and the domain count matches the assignment.
func TestDefaultTopologyFlatSafe(t *testing.T) {
	rt := New(WithWorkers(3))
	defer rt.Shutdown()
	nd := rt.NumDomains()
	if nd < 1 {
		t.Fatalf("NumDomains = %d", nd)
	}
	for i, d := range rt.DomainAssignment() {
		if d < 0 || d >= nd {
			t.Fatalf("worker %d assigned domain %d of %d", i, d, nd)
		}
	}
	if got := Run(rt, func(w *W) int { return profFib(rt, w, 15) }); got != 610 {
		t.Fatalf("fib(15) = %d", got)
	}
}

// TestLocalityAttributionConservation: across topologies, the intra + cross
// locality split is the steal total, per worker as in the sum; the steal
// rule's name follows where the workers landed; and workers that share one
// domain — on a flat topology, or on a 2x2 that two workers do not fill past
// its first domain — never count a cross-domain steal.
func TestLocalityAttributionConservation(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		workers int
		sp      StealPolicy
	}{
		{"flat-random", "1x4", 4, RandomSingle},
		{"2x2-random", "2x2", 2, RandomSingle},
		{"2x2-hier", "2x2", 4, Hierarchical},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(WithWorkers(tc.workers), WithTopology(synth(t, tc.spec)), WithSeed(5))
			if got := rt.StealPolicy(); got != tc.sp {
				t.Fatalf("StealPolicy() = %v, want %v", got, tc.sp)
			}
			for i := 0; i < 10; i++ {
				Run(rt, func(w *W) int { return profFib(rt, w, 16) })
			}
			st := rt.Stats()
			rt.Shutdown()
			if st.IntraSteals+st.CrossSteals != st.Steals {
				t.Fatalf("intra %d + cross %d != steals %d", st.IntraSteals, st.CrossSteals, st.Steals)
			}
			for _, ws := range st.PerWorker {
				if ws.IntraSteals+ws.CrossSteals != ws.Steals {
					t.Fatalf("worker %d: intra %d + cross %d != steals %d", ws.ID, ws.IntraSteals, ws.CrossSteals, ws.Steals)
				}
			}
			if tc.sp == RandomSingle && st.CrossSteals != 0 {
				t.Fatalf("workers sharing one domain recorded %d cross-domain steals", st.CrossSteals)
			}
		})
	}
}

// TestStealEventsCarryCross: traced steals on a 2x2 topology carry the
// Cross flag consistent with the thief/victim domains, and the trace's
// split is the telemetry counters' (a steal is counted and traced at the
// same moment, where the stolen task runs).
func TestStealEventsCarryCross(t *testing.T) {
	rt := New(WithWorkers(4), WithTopology(synth(t, "2x2")), WithSeed(9))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		Run(rt, func(w *W) int { return profFib(rt, w, 16) })
	}
	tr := rt.StopProfile()
	st := rt.Stats()
	rt.Shutdown()
	rec, err := profile.Reconstruct(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rec.IntraDomainSteals+rec.CrossDomainSteals != rec.Steals {
		t.Fatalf("recon intra %d + cross %d != steals %d",
			rec.IntraDomainSteals, rec.CrossDomainSteals, rec.Steals)
	}
	if rec.IntraDomainSteals != st.IntraSteals || rec.CrossDomainSteals != st.CrossSteals {
		t.Fatalf("trace split (%d/%d) is not the counter split (%d/%d)",
			rec.IntraDomainSteals, rec.CrossDomainSteals, st.IntraSteals, st.CrossSteals)
	}
}

// TestMetricsExposeLocality: the /metrics page carries the
// steals_locality_total family and the domains gauge.
func TestMetricsExposeLocality(t *testing.T) {
	rt := New(WithWorkers(4), WithTopology(synth(t, "2x2")))
	for i := 0; i < 5; i++ {
		Run(rt, func(w *W) int { return profFib(rt, w, 14) })
	}
	defer rt.Shutdown()
	var sb strings.Builder
	if err := rt.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"futurelocality_domains 2",
		`futurelocality_steals_locality_total{locality="intra-domain"}`,
		`futurelocality_steals_locality_total{locality="cross-domain"}`,
		`futurelocality_steals_total{policy="hierarchical"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHierarchicalRuntimeComputes: the domain-tiered thief a striped
// topology yields computes the same results as the flat one — victim tiering
// moves work, never changes it — and when steals happen at all, the telemetry
// split stays consistent with the per-worker breakdown.
func TestHierarchicalRuntimeComputes(t *testing.T) {
	rt := New(WithWorkers(4), WithTopology(synth(t, "2x2")), WithSeed(13))
	defer rt.Shutdown()
	if got := Run(rt, func(w *W) int { return profFib(rt, w, 18) }); got != 2584 {
		t.Fatalf("fib(18) = %d", got)
	}
	st := rt.Stats()
	var intra, cross int64
	for _, ws := range st.PerWorker {
		intra += ws.IntraSteals
		cross += ws.CrossSteals
	}
	if intra != st.IntraSteals || cross != st.CrossSteals {
		t.Fatalf("per-worker locality (%d/%d) disagrees with totals (%d/%d)",
			intra, cross, st.IntraSteals, st.CrossSteals)
	}
	if snap := rt.TelemetrySnapshot(); snap.Steals() != st.Steals {
		t.Fatalf("snapshot steals %d != Stats.Steals %d", snap.Steals(), st.Steals)
	}
}
