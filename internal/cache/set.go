package cache

import (
	"fmt"
	"slices"

	"futurelocality/internal/dag"
)

// SetConfig parameterizes a per-worker cache set: P private caches of the
// Section 3 model, optionally backed by one shared last-level cache per
// locality domain (the internal/topology alignment: workers of one LLC
// domain share one simulated LLC tier).
type SetConfig struct {
	// P is the number of workers (≥ 1), one private cache each.
	P int
	// Kind and Lines give each private cache's replacement policy and
	// capacity C (Lines ≥ 1).
	Kind  Kind
	Lines int
	// Domains assigns each worker to a locality domain (len must be P when
	// non-nil; nil means one flat domain). Only meaningful with LLCLines > 0.
	Domains []int
	// LLCLines enables the shared tier: each domain gets one cache of this
	// many lines, consulted on a private miss (0 disables the tier). An
	// access that misses the private cache but hits the domain LLC models an
	// on-package refill; missing both models a memory fetch.
	LLCLines int
}

// Set is a per-worker cache hierarchy: P independent private simulators plus
// an optional shared-LLC tier per locality domain, all of one policy. It is
// what the cache-cost replay drives — the multi-processor reading of the
// paper's "each processor has its own cache of C blocks" (Section 3),
// extended one level so that topology-aware schedules can be charged
// cross-domain refills distinctly.
//
// A Set is reusable: each Replay starts from empty caches, whatever the
// footprint, so one Set serves every schedule its owner replays.
type Set struct {
	cfg SetConfig
	// The caches, private ones first and then one shared cache per domain,
	// in the slice of cfg.Kind's concrete type, so that Replay calls no
	// interface per access. The fully associative kinds index a directTable
	// by the footprint's dense ids.
	lru   []lru
	fifo  []fifo
	assoc []setAssoc
	// misses backs ReplayOutcome.Misses.
	misses []int64
}

// NewSet builds the cache set. It validates like sim.New: Domains, when
// given, must cover exactly P workers.
func NewSet(cfg SetConfig) (*Set, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("cache: set with P = %d", cfg.P)
	}
	if cfg.Lines < 1 {
		return nil, fmt.Errorf("cache: set with %d lines", cfg.Lines)
	}
	if cfg.Kind > DirectMapped {
		return nil, fmt.Errorf("cache: set of undefined policy %s", cfg.Kind)
	}
	if cfg.Domains != nil && len(cfg.Domains) != cfg.P {
		return nil, fmt.Errorf("cache: len(Domains) = %d, want P = %d", len(cfg.Domains), cfg.P)
	}
	cfg.Domains = slices.Clone(cfg.Domains)
	shared := 0
	if cfg.LLCLines > 0 {
		shared = 1
		for _, d := range cfg.Domains {
			if d < 0 {
				return nil, fmt.Errorf("cache: negative domain %d", d)
			}
			shared = max(shared, d+1)
		}
	}
	s := &Set{cfg: cfg, misses: make([]int64, cfg.P)}
	for i := 0; i < cfg.P+shared; i++ {
		c := cfg.Lines
		if i >= cfg.P {
			c = cfg.LLCLines
		}
		switch cfg.Kind {
		case LRU:
			s.lru = append(s.lru, newLRU(c))
		case FIFO:
			s.fifo = append(s.fifo, newFIFO(c))
		case SetAssocLRU:
			s.assoc = append(s.assoc, newSetAssoc(c, 4))
		default:
			s.assoc = append(s.assoc, newSetAssoc(c, 1))
		}
	}
	return s, nil
}

// Serves reports whether s is the set NewSet(cfg) would build, so that its
// holder may go on replaying through it.
func (s *Set) Serves(cfg SetConfig) bool {
	return s.cfg.P == cfg.P && s.cfg.Kind == cfg.Kind && s.cfg.Lines == cfg.Lines &&
		s.cfg.LLCLines == cfg.LLCLines &&
		(s.cfg.Domains == nil) == (cfg.Domains == nil) && slices.Equal(s.cfg.Domains, cfg.Domains)
}

// ReplayOutcome is the miss account of one schedule replayed through a Set.
type ReplayOutcome struct {
	// Misses is the per-worker private miss count. It aliases the Set's own
	// storage and is overwritten by that Set's next Replay; TotalMisses,
	// LLCMisses and Accesses are plain values.
	Misses []int64
	// TotalMisses sums Misses; LLCMisses counts shared-tier (memory) misses
	// when the Set carries an LLC tier.
	TotalMisses, LLCMisses int64
	// Accesses is the number of block accesses replayed.
	Accesses int64
}

// Replay empties the set and drives it with an execution schedule: order is
// the global execution order of node IDs, who maps each node to the worker
// that executed it (nil = everything on worker 0 — the sequential baseline).
// Each node's footprint blocks are accessed in footprint order on the
// executing worker's private cache and, on a miss there with a shared tier
// configured, on its domain's LLC too — so LLCMisses counts true memory
// fetches while TotalMisses counts private-cache misses, the quantity the
// paper's C·deviations charge bounds. The returned outcome is the schedule's
// simulated miss bill; subtracting the sequential baseline's gives the
// "additional misses" the theorem bounds.
//
// Emptying costs O(resident lines): a fully associative cache forgets the
// blocks it holds one by one and then takes fp's universe for its table's
// length, so the tables are cleared in proportion to C and allocated only
// when a footprint is larger than any before it.
func (s *Set) Replay(fp *Footprint, order []dag.NodeID, who []int32) ReplayOutcome {
	for i := range s.lru {
		c := &s.lru[i]
		c.Reset()
		c.index = c.index.fit(len(fp.raw))
	}
	for i := range s.fifo {
		c := &s.fifo[i]
		c.Reset()
		c.index = c.index.fit(len(fp.raw))
	}
	for i := range s.assoc {
		s.assoc[i].Reset()
	}
	kind, tier, domains := s.cfg.Kind, s.cfg.LLCLines > 0, s.cfg.Domains
	lru, fifo, assoc := s.lru, s.fifo, s.assoc
	var one [1]dag.BlockID
	for _, v := range order {
		p := 0
		if who != nil {
			p = int(who[v])
		}
		llc := s.cfg.P // p's shared cache
		if domains != nil {
			llc += domains[p]
		}
		for _, b := range fp.of(v, &one) {
			switch kind {
			case LRU:
				if lru[p].Access(b) && tier {
					lru[llc].Access(b)
				}
			case FIFO:
				if fifo[p].Access(b) && tier {
					fifo[llc].Access(b)
				}
			default:
				// These place a block by its identity.
				if b = fp.raw[b]; assoc[p].Access(b) && tier {
					assoc[llc].Access(b)
				}
			}
		}
	}
	out := ReplayOutcome{Misses: s.misses}
	tally(&out, lru)
	tally(&out, fifo)
	tally(&out, assoc)
	return out
}

// tally enters the counters of a Set's caches, whichever type they have, in
// out: as many private caches as out.Misses is long, then the shared ones.
func tally[C any, PC interface {
	*C
	Misses() int64
	Accesses() int64
}](out *ReplayOutcome, caches []C) {
	for i := range caches {
		c := PC(&caches[i])
		if i >= len(out.Misses) {
			out.LLCMisses += c.Misses()
			continue
		}
		out.Misses[i] = c.Misses()
		out.TotalMisses += c.Misses()
		out.Accesses += c.Accesses()
	}
}
