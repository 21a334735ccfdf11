package cache

import (
	"fmt"

	"futurelocality/internal/dag"
)

// SetConfig parameterizes a per-worker cache set: P private caches of the
// Section 3 model, optionally backed by one last-level cache all of them
// share — one LLC domain, as every Runtime is.
type SetConfig struct {
	// P is the number of workers (≥ 1), one private cache each.
	P int
	// Kind and Lines give each private cache's replacement policy and
	// capacity C (Lines ≥ 1).
	Kind  Kind
	Lines int
	// LLCLines enables the shared tier: one cache of this many lines,
	// consulted on a private miss (0 disables the tier). An access that
	// misses the private cache but hits the LLC models an on-package refill;
	// missing both models a memory fetch.
	LLCLines int
}

// Set is a per-worker cache hierarchy: P independent private simulators plus
// an optional shared-LLC tier, all of one policy. It is
// what the cache-cost replay drives — the multi-processor reading of the
// paper's "each processor has its own cache of C blocks" (Section 3),
// extended one level to a shared last-level cache.
//
// A Set is reusable: each Replay starts from empty caches, whatever the
// footprint, so one Set serves every schedule its owner replays.
type Set struct {
	cfg SetConfig
	// The caches, private ones first and then the shared one, if any, in
	// the slice of cfg.Kind's concrete type, so that Replay calls no
	// interface per access. The fully associative kinds index a directTable
	// by the footprint's dense ids.
	lru   []lru
	fifo  []fifo
	assoc []setAssoc
	// misses backs ReplayOutcome.Misses.
	misses []int64
	// runs is ReplayConverged's account of each worker's current run.
	runs []run
}

// NewSet builds the cache set.
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
	shared := 0
	if cfg.LLCLines > 0 {
		shared = 1
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
func (s *Set) Serves(cfg SetConfig) bool { return s.cfg == cfg }

// ReplayOutcome is the miss account of one schedule replayed through a Set.
type ReplayOutcome struct {
	// Misses is the per-worker private miss count. It aliases the Set's own
	// storage and is overwritten by that Set's next Replay; TotalMisses,
	// LLCMisses and Accesses are plain values.
	Misses []int64
	// TotalMisses sums Misses; LLCMisses counts shared-tier (memory) misses
	// when the Set carries an LLC tier.
	TotalMisses, LLCMisses int64
	// Accesses is the number of block accesses simulated: every access of
	// the schedule for Replay, the runs' heads for ReplayConverged.
	Accesses int64
}

// Replay empties the set and drives it with an execution schedule: order is
// the global execution order of node IDs, who maps each node to the worker
// that executed it (nil = everything on worker 0 — the sequential baseline).
// Each node's footprint blocks are accessed in footprint order on the
// executing worker's private cache and, on a miss there with a shared tier
// configured, on the LLC too — so LLCMisses counts true memory
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
	s.empty(fp)
	kind, tier, llc := s.cfg.Kind, s.cfg.LLCLines > 0, s.cfg.P
	lru, fifo, assoc := s.lru, s.fifo, s.assoc
	var one [1]dag.BlockID
	for _, v := range order {
		p := 0
		if who != nil {
			p = int(who[v])
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

// empty empties every cache of s and fits the residency tables of the fully
// associative ones to fp's blocks.
func (s *Set) empty(fp *Footprint) {
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
