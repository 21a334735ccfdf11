package topology

import (
	"reflect"
	"strings"
	"testing"
)

// TestDiscoverDualSocket: two LLC groups become two domains; private
// lower levels are recorded but do not split the domains further.
func TestDiscoverDualSocket(t *testing.T) {
	topo, err := Discover("testdata/dual_socket")
	if err != nil {
		t.Fatal(err)
	}
	if topo.CPUs != 8 || topo.Source != "sysfs" {
		t.Fatalf("CPUs=%d Source=%q, want 8/sysfs", topo.CPUs, topo.Source)
	}
	if len(topo.Domains) != 2 {
		t.Fatalf("domains = %d, want 2", len(topo.Domains))
	}
	if !reflect.DeepEqual(topo.Domains[0].CPUs, []int{0, 1, 2, 3}) ||
		!reflect.DeepEqual(topo.Domains[1].CPUs, []int{4, 5, 6, 7}) {
		t.Fatalf("domain CPU sets wrong: %+v", topo.Domains)
	}
	// Four cache indexes seen: L1d, L1i, L2 private (8 groups each), L3 per
	// socket (2 groups).
	if len(topo.Levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(topo.Levels))
	}
	llc := topo.Levels[len(topo.Levels)-1]
	if llc.Index != 3 || len(llc.Groups) != 2 {
		t.Fatalf("LLC level = index%d with %d groups, want index3 with 2", llc.Index, len(llc.Groups))
	}
}

// TestDiscoverSMTSibling: SMT pairs share everything below the LLC but the
// chip-wide L3 makes one domain — lower-level sharing must not be mistaken
// for a domain boundary.
func TestDiscoverSMTSibling(t *testing.T) {
	topo, err := Discover("testdata/smt_sibling")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Domains) != 1 || !reflect.DeepEqual(topo.Domains[0].CPUs, []int{0, 1, 2, 3}) {
		t.Fatalf("domains = %+v, want one covering 0-3", topo.Domains)
	}
	// The L1/L2 levels show the sibling pairs.
	if got := len(topo.Levels[0].Groups); got != 2 {
		t.Fatalf("index0 groups = %d, want 2 SMT pairs", got)
	}
}

// TestDiscoverSingleLLC: the common laptop shape — one shared L3 — is one
// domain, i.e. hierarchical stealing degenerates to the flat behavior.
func TestDiscoverSingleLLC(t *testing.T) {
	topo, err := Discover("testdata/single_llc")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Domains) != 1 || topo.CPUs != 4 {
		t.Fatalf("got %d domains over %d cpus, want 1 over 4", len(topo.Domains), topo.CPUs)
	}
}

// TestDiscoverGarbled: a shared list omitting its own CPU is an error, not
// a topology.
func TestDiscoverGarbled(t *testing.T) {
	if _, err := Discover("testdata/garbled"); err == nil {
		t.Fatal("garbled tree should not parse")
	}
}

// TestDiscoverMissing: absent roots and CPUs without cache directories are
// errors; DetectFrom degrades both to the synthetic flat fallback.
func TestDiscoverMissing(t *testing.T) {
	if _, err := Discover("testdata/does_not_exist"); err == nil {
		t.Fatal("missing root should not parse")
	}
	if _, err := Discover("testdata/missing_cache"); err == nil {
		t.Fatal("cpu without cache dirs should not parse")
	}
	for _, root := range []string{"testdata/does_not_exist", "testdata/missing_cache", "testdata/garbled"} {
		topo := DetectFrom(root, 4)
		if topo.Source != "flat" || topo.CPUs != 4 || len(topo.Domains) != 1 {
			t.Fatalf("DetectFrom(%s) = %+v, want flat 4-cpu fallback", root, topo)
		}
	}
	// A healthy tree is used as-is.
	if topo := DetectFrom("testdata/dual_socket", 1); topo.Source != "sysfs" || len(topo.Domains) != 2 {
		t.Fatalf("DetectFrom(dual_socket) fell back: %+v", topo)
	}
}

// TestSynthetic: the DxC spec grammar and its errors.
func TestSynthetic(t *testing.T) {
	topo, err := Synthetic("2x2")
	if err != nil {
		t.Fatal(err)
	}
	if topo.CPUs != 4 || len(topo.Domains) != 2 || topo.Source != "synthetic:2x2" {
		t.Fatalf("Synthetic(2x2) = %+v", topo)
	}
	if !reflect.DeepEqual(topo.Domains[1].CPUs, []int{2, 3}) {
		t.Fatalf("domain 1 = %v, want [2 3]", topo.Domains[1].CPUs)
	}
	if topo, err := Synthetic(" 1X4 "); err != nil || len(topo.Domains) != 1 || topo.CPUs != 4 {
		t.Fatalf("Synthetic(1X4) = %+v, %v", topo, err)
	}
	for _, bad := range []string{"", "2", "x", "0x4", "2x0", "-1x2", "2x2x2", "ax2"} {
		if _, err := Synthetic(bad); err == nil {
			t.Errorf("Synthetic(%q) should fail", bad)
		}
	}
}

// TestParseCPUList: the sysfs list grammar.
func TestParseCPUList(t *testing.T) {
	for s, want := range map[string][]int{
		"0-3":     {0, 1, 2, 3},
		"0,2":     {0, 2},
		"0-1,4-5": {0, 1, 4, 5},
		"7\n":     {7},
	} {
		got, err := ParseCPUList(s)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseCPUList(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "3-1", "a", "1,1", "-2", "1,,2"} {
		if _, err := ParseCPUList(bad); err == nil {
			t.Errorf("ParseCPUList(%q) should fail", bad)
		}
	}
}

// TestAssign: workers stripe across per-CPU slots and wrap under
// oversubscription; the acceptance configuration (2x2 at 4 workers) pins
// the [0 0 1 1] layout the runtime and sim tests rely on.
func TestAssign(t *testing.T) {
	topo, _ := Synthetic("2x2")
	a := topo.Assign(4)
	if !reflect.DeepEqual(a.Domain, []int{0, 0, 1, 1}) {
		t.Fatalf("2x2@4 domains = %v, want [0 0 1 1]", a.Domain)
	}
	if !reflect.DeepEqual(a.Members[0], []int{0, 1}) || !reflect.DeepEqual(a.Members[1], []int{2, 3}) {
		t.Fatalf("members = %+v", a.Members)
	}
	if d := a.Domain; d[0] != d[1] || d[1] == d[2] || d[2] != d[3] {
		t.Fatalf("workers striped %v, want two per domain", d)
	}
	// Oversubscription wraps.
	if got := topo.Assign(6).Domain; !reflect.DeepEqual(got, []int{0, 0, 1, 1, 0, 0}) {
		t.Fatalf("2x2@6 domains = %v", got)
	}
	// Fewer workers than CPUs leaves a domain empty but present.
	a2 := topo.Assign(2)
	if !reflect.DeepEqual(a2.Domain, []int{0, 0}) || len(a2.Members[1]) != 0 || a2.NumDomains() != 2 {
		t.Fatalf("2x2@2 = %+v", a2)
	}
}

// TestSubDomain: the carve-out a sharded pool builds each member runtime
// on — one domain, the parent's CPU list, provenance in Source, and no
// aliasing back into the parent.
func TestSubDomain(t *testing.T) {
	topo, _ := Synthetic("2x3")
	sub := topo.SubDomain(1)
	if sub.CPUs != 3 || len(sub.Domains) != 1 || sub.Domains[0].ID != 0 {
		t.Fatalf("SubDomain(1) = %+v", sub)
	}
	if !reflect.DeepEqual(sub.Domains[0].CPUs, []int{3, 4, 5}) {
		t.Fatalf("SubDomain(1) cpus = %v, want [3 4 5]", sub.Domains[0].CPUs)
	}
	if sub.Source != "synthetic:2x3/domain1" {
		t.Fatalf("SubDomain(1) source = %q", sub.Source)
	}
	// The CPU slice is a copy: mutating the carve-out leaves the parent alone.
	sub.Domains[0].CPUs[0] = 99
	if topo.Domains[1].CPUs[0] != 3 {
		t.Fatal("SubDomain aliases the parent's CPU slice")
	}
	// Assign on a sub-domain puts every worker in domain 0.
	if got := sub.SubDomain(0).Assign(4).Domain; !reflect.DeepEqual(got, []int{0, 0, 0, 0}) {
		t.Fatalf("sub assign = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SubDomain(2) of a 2-domain topology must panic")
		}
	}()
	topo.SubDomain(2)
}

// TestFlatAndDetect: the fallbacks are well-formed, and Detect never
// returns nil whatever the host looks like.
func TestFlatAndDetect(t *testing.T) {
	f := Flat(0)
	if f.CPUs != 1 || len(f.Domains) != 1 {
		t.Fatalf("Flat(0) = %+v", f)
	}
	d := Detect()
	if d == nil || d.CPUs < 1 || len(d.Domains) < 1 {
		t.Fatalf("Detect() = %+v", d)
	}
	if d != Detect() {
		t.Fatal("Detect must cache")
	}
}

// TestString: the dump names source, domain count, and CPU ranges — the
// shape CI archives as an artifact.
func TestString(t *testing.T) {
	topo, _ := Synthetic("2x2")
	s := topo.String()
	for _, want := range []string{"4 cpus", "2 llc domains", "synthetic:2x2", "domain 0: cpus 0-1", "domain 1: cpus 2-3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
