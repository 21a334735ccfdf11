// Package topology discovers the machine's cache-sharing hierarchy: the
// last-level-cache (LLC) domains a sharded pool carves its member runtimes
// from, one runtime per domain.
//
// The paper's model charges a deviation whenever a processor executes a
// node out of sequential order, because a deviation is where cache state
// is lost. On real hardware the cost of that loss is not uniform: a task
// stolen by a worker sharing the victim's LLC finds much of its working set
// warm, while a steal that crosses an LLC boundary pays the full miss cost
// the theorems budget for. The paper's bounds hold for a uniformly random
// thief, so a runtime stays one flat steal domain, and the boundary is
// respected one layer up: shard.Pool runs one runtime per domain. discover parses the
// cache-sharing sets Linux exposes in sysfs
// (/sys/devices/system/cpu/cpu*/cache/index*/shared_cpu_list) into nested
// levels, and Synthetic builds injectable "DxC" topologies (D domains of C
// CPUs) for tests and hosts that lack the hierarchy they describe.
package topology

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SysfsRoot is the directory Detect scans on Linux hosts; tests point
// discover at testdata trees with the same shape.
const SysfsRoot = "/sys/devices/system/cpu"

// Domain is one last-level-cache sharing group: the set of CPUs whose LLC
// is the same physical cache. Steals within a Domain are cheap (shared
// cache); steals across Domains are the expensive kind the paper's miss
// bound prices.
type Domain struct {
	ID   int
	CPUs []int
}

// Level is one cache level's sharing structure: the partition of CPUs
// into groups that share a cache at this sysfs index (index 0/1 are
// typically the L1 split caches, the highest index the LLC).
type Level struct {
	Index  int
	Groups [][]int
}

// Topology is a machine's cache-sharing hierarchy: the CPU count, the
// per-level sharing partitions, and the LLC-level Domains a pool carves
// shards from. Source records provenance ("sysfs", "synthetic:2x2",
// "flat") for logs and CI artifacts.
type Topology struct {
	CPUs    int
	Levels  []Level
	Domains []Domain
	Source  string
}

// flat returns the degenerate single-domain topology over n CPUs — the
// behavior every layer had before domains existed, and the fallback when
// sysfs is absent or garbled. n < 1 is clamped to 1.
func flat(n int) *Topology {
	if n < 1 {
		n = 1
	}
	cpus := make([]int, n)
	for i := range cpus {
		cpus[i] = i
	}
	return &Topology{
		CPUs:    n,
		Domains: []Domain{{ID: 0, CPUs: cpus}},
		Source:  "flat",
	}
}

// maxCPUs bounds what a textual spec — a -topology flag, a sysfs CPU list —
// can make this package allocate. Linux's own NR_CPUS limit is 8192.
const maxCPUs = 1 << 16

// Synthetic parses a "DxC" spec — D locality domains of C CPUs each, e.g.
// "2x2" (two dual-CPU LLC domains) or "1x4" (one four-CPU domain) — into
// an injectable topology. Specs are how tests and small hosts describe the
// multi-socket machines they do not have.
func Synthetic(spec string) (*Topology, error) {
	parts := strings.SplitN(strings.ToLower(strings.TrimSpace(spec)), "x", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("topology: bad spec %q (want DxC, e.g. 2x2)", spec)
	}
	d, err1 := strconv.Atoi(parts[0])
	c, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || d < 1 || c < 1 || d > maxCPUs || c > maxCPUs/d {
		return nil, fmt.Errorf("topology: bad spec %q (want DxC with positive D, C and at most %d CPUs)", spec, maxCPUs)
	}
	t := &Topology{CPUs: d * c, Source: "synthetic:" + parts[0] + "x" + parts[1]}
	for i := 0; i < d; i++ {
		cpus := make([]int, c)
		for j := range cpus {
			cpus[j] = i*c + j
		}
		t.Domains = append(t.Domains, Domain{ID: i, CPUs: cpus})
	}
	return t, nil
}

var cpuDirRe = regexp.MustCompile(`^cpu([0-9]+)$`)

// discover parses a sysfs-shaped tree rooted at root
// (<root>/cpu<N>/cache/index<M>/shared_cpu_list) into a Topology. The
// highest cache index present on every CPU is taken as the LLC and its
// sharing groups become the Domains; lower indexes are recorded as
// Levels. Missing or internally inconsistent trees (a CPU without cache
// directories, a shared list that omits its own CPU, overlapping LLC
// groups) return an error so the caller can fall back to a synthetic
// topology rather than schedule on garbage.
func discover(root string) (*Topology, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	var cpus []int
	for _, e := range entries {
		if m := cpuDirRe.FindStringSubmatch(e.Name()); m != nil {
			n, _ := strconv.Atoi(m[1])
			cpus = append(cpus, n)
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("topology: no cpu* directories under %s", root)
	}
	sort.Ints(cpus)
	present := make(map[int]bool, len(cpus))
	for _, c := range cpus {
		present[c] = true
	}

	// sharing[index][canonical shared-list key] = the shared CPU set.
	sharing := map[int]map[string][]int{}
	maxIndex := -1
	for _, cpu := range cpus {
		cacheDir := fmt.Sprintf("%s/cpu%d/cache", root, cpu)
		idxEntries, err := os.ReadDir(cacheDir)
		if err != nil {
			return nil, fmt.Errorf("topology: cpu%d has no cache directory: %w", cpu, err)
		}
		sawIndex := false
		for _, ie := range idxEntries {
			name := ie.Name()
			if !strings.HasPrefix(name, "index") {
				continue
			}
			idx, err := strconv.Atoi(name[len("index"):])
			if err != nil {
				continue
			}
			raw, err := os.ReadFile(cacheDir + "/" + name + "/shared_cpu_list")
			if err != nil {
				return nil, fmt.Errorf("topology: cpu%d/%s: %w", cpu, name, err)
			}
			set, err := parseCPUList(string(raw))
			if err != nil {
				return nil, fmt.Errorf("topology: cpu%d/%s: %w", cpu, name, err)
			}
			selfSeen := false
			for _, c := range set {
				if !present[c] {
					return nil, fmt.Errorf("topology: cpu%d/%s names absent cpu%d", cpu, name, c)
				}
				selfSeen = selfSeen || c == cpu
			}
			if !selfSeen {
				return nil, fmt.Errorf("topology: cpu%d/%s shared list omits cpu%d", cpu, name, cpu)
			}
			if sharing[idx] == nil {
				sharing[idx] = map[string][]int{}
			}
			sharing[idx][cpuListKey(set)] = set
			if idx > maxIndex {
				maxIndex = idx
			}
			sawIndex = true
		}
		if !sawIndex {
			return nil, fmt.Errorf("topology: cpu%d has no cache index directories", cpu)
		}
	}

	t := &Topology{CPUs: len(cpus), Source: "sysfs"}
	for idx := 0; idx <= maxIndex; idx++ {
		groups := sharing[idx]
		if groups == nil {
			continue
		}
		lv := Level{Index: idx}
		for _, set := range groups {
			lv.Groups = append(lv.Groups, set)
		}
		sort.Slice(lv.Groups, func(i, j int) bool { return lv.Groups[i][0] < lv.Groups[j][0] })
		t.Levels = append(t.Levels, lv)
	}

	// The LLC level's groups become the domains; they must partition the
	// CPU set exactly or the tree is lying about something.
	llc := t.Levels[len(t.Levels)-1]
	covered := map[int]int{}
	for i, g := range llc.Groups {
		for _, c := range g {
			if prev, dup := covered[c]; dup {
				return nil, fmt.Errorf("topology: cpu%d in two LLC groups (%d and %d)", c, prev, i)
			}
			covered[c] = i
		}
		t.Domains = append(t.Domains, Domain{ID: i, CPUs: g})
	}
	if len(covered) != len(cpus) {
		return nil, fmt.Errorf("topology: LLC groups cover %d of %d cpus", len(covered), len(cpus))
	}
	return t, nil
}

// DetectFrom tries discover(root) and falls back to the flat topology over
// fallbackCPUs when the tree is absent or garbled — discovery failure must
// degrade to the pre-topology behavior, never to a broken scheduler.
func DetectFrom(root string, fallbackCPUs int) *Topology {
	if t, err := discover(root); err == nil {
		return t
	}
	return flat(fallbackCPUs)
}

var (
	detectOnce sync.Once
	detected   *Topology
)

// Detect returns the host topology, discovered from the real sysfs tree
// once per process (falling back to a flat topology over runtime.NumCPU()
// when sysfs is unavailable — containers, non-Linux hosts, the 1-CPU dev
// box).
func Detect() *Topology {
	detectOnce.Do(func() {
		detected = DetectFrom(SysfsRoot, runtime.NumCPU())
	})
	return detected
}

// parseCPUList parses the sysfs CPU-list syntax: comma-separated entries
// that are either a single CPU ("3") or an inclusive range ("0-3"), e.g.
// "0-1,4-5". Whitespace is trimmed; empty lists, descending ranges and lists
// of more than maxCPUs entries are errors.
func parseCPUList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("empty cpu list")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, isRange := strings.Cut(part, "-")
		if !isRange {
			hi = lo
		}
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a < 0 || b < a {
			return nil, fmt.Errorf("bad cpu or cpu range %q", part)
		}
		if b-a >= maxCPUs-len(out) {
			return nil, fmt.Errorf("more than %d cpus in list", maxCPUs)
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("duplicate cpu%d in list", out[i])
		}
	}
	return out, nil
}

func cpuListKey(set []int) string {
	var sb strings.Builder
	for i, c := range set {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// NumDomains returns the LLC domain count.
func (t *Topology) NumDomains() int { return len(t.Domains) }

// String renders the topology as a human-readable dump — the CI artifact
// format and the jobserver startup log line.
func (t *Topology) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "topology: %d cpus, %d llc domains (source %s)\n", t.CPUs, len(t.Domains), t.Source)
	for _, d := range t.Domains {
		fmt.Fprintf(&sb, "  domain %d: cpus %s\n", d.ID, formatCPUList(d.CPUs))
	}
	for _, lv := range t.Levels {
		fmt.Fprintf(&sb, "  cache index%d: %d sharing groups\n", lv.Index, len(lv.Groups))
	}
	return sb.String()
}

func formatCPUList(cpus []int) string {
	var sb strings.Builder
	for i := 0; i < len(cpus); i++ {
		j := i
		for j+1 < len(cpus) && cpus[j+1] == cpus[j]+1 {
			j++
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&sb, "%d-%d", cpus[i], cpus[j])
		} else {
			fmt.Fprintf(&sb, "%d", cpus[i])
		}
		i = j
	}
	return sb.String()
}
