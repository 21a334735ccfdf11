package topology

import (
	"runtime"
	"sort"
	"testing"
)

// TestSpecAllocationIsBounded: the two textual specs reachable from a flag
// or a file refuse what would take gigabytes to build, before building it.
func TestSpecAllocationIsBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Synthetic("99999x99999"); err == nil {
		t.Error("Synthetic(99999x99999) accepted")
	}
	if _, err := Synthetic("4294967297x4294967297"); err == nil {
		t.Error("Synthetic accepted a product that overflows")
	}
	if _, err := ParseCPUList("0-9999999999"); err == nil {
		t.Error("ParseCPUList(0-9999999999) accepted")
	}
	if _, err := ParseCPUList("0-65535,0-65535"); err == nil {
		t.Error("ParseCPUList accepted more than maxCPUs entries")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("refusing four specs allocated %d bytes", grew)
	}
	if topo, err := Synthetic("256x256"); err != nil || topo.CPUs != maxCPUs {
		t.Fatalf("Synthetic(256x256) = %v, %v; the bound itself must be accepted", topo, err)
	}
}

// FuzzTopologySpec: Synthetic and ParseCPUList either refuse a spec or return
// something consistent with it, and never more than maxCPUs of it.
func FuzzTopologySpec(f *testing.F) {
	for _, s := range []string{"2x2", "1x4", "99999x99999", " 2X3 ", "0x1", "x", "0-3", "0-1,4-5",
		"3", "5-2", "0-9999999999", "1,1", "", "0-65535,0-65535"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if topo, err := Synthetic(spec); err == nil {
			n := 0
			for _, d := range topo.Domains {
				n += len(d.CPUs)
			}
			if n != topo.CPUs || n < 1 || n > maxCPUs {
				t.Fatalf("Synthetic(%q): %d CPUs in domains, CPUs = %d", spec, n, topo.CPUs)
			}
		}
		if cpus, err := ParseCPUList(spec); err == nil {
			if len(cpus) == 0 || len(cpus) > maxCPUs || !sort.IntsAreSorted(cpus) || cpus[0] < 0 {
				t.Fatalf("ParseCPUList(%q) = %d cpus starting %v", spec, len(cpus), cpus[:1])
			}
		}
	})
}
