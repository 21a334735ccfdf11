package topology

import (
	"reflect"
	"strings"
	"testing"
)

// TestDiscoverDualSocket: two LLC groups become two domains; private
// lower levels are recorded but do not split the domains further.
func TestDiscoverDualSocket(t *testing.T) {
	topo, err := discover("testdata/dual_socket")
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
	topo, err := discover("testdata/smt_sibling")
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
// domain, so a default pool runs one shard.
func TestDiscoverSingleLLC(t *testing.T) {
	topo, err := discover("testdata/single_llc")
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
	if _, err := discover("testdata/garbled"); err == nil {
		t.Fatal("garbled tree should not parse")
	}
}

// TestDiscoverMissing: absent roots and CPUs without cache directories are
// errors; DetectFrom degrades both to the synthetic flat fallback.
func TestDiscoverMissing(t *testing.T) {
	if _, err := discover("testdata/does_not_exist"); err == nil {
		t.Fatal("missing root should not parse")
	}
	if _, err := discover("testdata/missing_cache"); err == nil {
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
		got, err := parseCPUList(s)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseCPUList(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "3-1", "a", "1,1", "-2", "1,,2"} {
		if _, err := parseCPUList(bad); err == nil {
			t.Errorf("parseCPUList(%q) should fail", bad)
		}
	}
}

// TestFlatAndDetect: the fallbacks are well-formed, and Detect never
// returns nil whatever the host looks like.
func TestFlatAndDetect(t *testing.T) {
	f := flat(0)
	if f.CPUs != 1 || len(f.Domains) != 1 {
		t.Fatalf("flat(0) = %+v", f)
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
