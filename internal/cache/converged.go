package cache

import (
	"fmt"

	"futurelocality/internal/dag"
)

// The converged replay: the data-locality argument of Acar, Blelloch and
// Blumofe that the paper's C·(1 + P·T∞²) corollary rests on, used as the
// replay algorithm.
//
// A fully associative LRU cache of C lines holds the C most recently used
// distinct blocks of its access history, in recency order, whatever it held
// before them. Call a worker's run a stretch of its schedule in which each
// node is the sequential successor of the node the worker ran before it.
// Once a run has accessed C distinct blocks, the worker's cache is the
// sequential replay's cache at the same point of the sequential order, and
// until the run ends every access misses exactly where it missed
// sequentially. So only a run's head is simulated: from there on each node is
// charged the misses it took in the sequential replay, recorded per node by
// ReplayRecording. When a converged run ends, at the worker's next
// deviation, its cache is rebuilt as the sequential cache after the run's
// last node — the first C distinct blocks met walking the sequential order
// back from that node, a walk no longer than the run itself.

// run is a worker's current run in ReplayConverged.
type run struct {
	last  dag.NodeID // the node the worker ran last; dag.None before its first
	epoch int32      // the stamp the run leaves on the lines it accesses
	seen  int32      // distinct blocks the run has accessed; C or more = converged
	// charged sums the sequential misses of the worker's converged nodes.
	charged int64
}

// Converges reports whether ReplayConverged may stand for Replay of fp on a
// set of configuration c: private LRU caches with no shared tier, over a
// footprint of more blocks than C. FIFO replacement depends on the miss
// history, not on the last C blocks; set-associative and direct-mapped caches
// converge set by set; and a shared tier interleaves every worker's stream:
// those keep the full replay. A footprint of at most C blocks never
// overflows a cache, so nothing is ever evicted and there is no run head to
// tell apart: it Fits instead, and takes the counting replay (ReplayFit).
func (c SetConfig) Converges(fp *Footprint) bool {
	return c.Kind == LRU && c.LLCLines == 0 && len(fp.raw) > c.Lines
}

// Fits reports whether ReplayFit may stand for Replay of fp on a set of
// configuration c: private fully associative caches (LRU or FIFO) with no
// shared tier, over a footprint of at most C blocks. For LRU it is the
// complement of Converges.
func (c SetConfig) Fits(fp *Footprint) bool {
	return (c.Kind == LRU || c.Kind == FIFO) && c.LLCLines == 0 && len(fp.raw) <= c.Lines
}

// ReplayFit returns what Replay(fp, order, who) returns, per worker and in
// total, on a set whose configuration Fits fp, by counting instead of
// simulating. A fully associative cache of C lines that is never offered more
// than C distinct blocks never evicts one, whatever its policy, so each
// worker misses exactly once on each distinct block it accesses: a stamp per
// worker and block marks the ones it has met in this replay. Its Accesses
// counts every access of the schedule.
func (s *Set) ReplayFit(fp *Footprint, order []dag.NodeID, who []int32) ReplayOutcome {
	if !s.cfg.Fits(fp) {
		panic(fmt.Sprintf("cache: fit replay on %+v over %d blocks", s.cfg, len(fp.raw)))
	}
	// seen[p·blocks + b] == gen once worker p has accessed b in this replay.
	// The stamps of earlier replays, over any footprint, are all below gen.
	blocks := len(fp.raw)
	if n := s.cfg.P * blocks; n > len(s.seen) {
		s.seen, s.gen = make([]uint32, n), 0
	}
	if s.gen++; s.gen == 0 {
		clear(s.seen)
		s.gen = 1
	}
	clear(s.misses)
	seen, gen, misses := s.seen, s.gen, s.misses
	var one [1]dag.BlockID
	var accesses int64
	for _, v := range order {
		p := int32(0)
		if who != nil {
			p = who[v]
		}
		base := int(p) * blocks
		bs := fp.of(v, &one)
		accesses += int64(len(bs))
		for _, b := range bs {
			if seen[base+int(b)] != gen {
				seen[base+int(b)] = gen
				misses[p]++
			}
		}
	}
	out := ReplayOutcome{Misses: misses, Accesses: accesses}
	for _, m := range misses {
		out.TotalMisses += m
	}
	return out
}

// ReplayRecording is Replay of a one-worker schedule (who = nil) that also
// writes to miss[v] the misses node v's accesses took, for every node of
// order: the sequential account ReplayConverged charges a converged run from.
// s must be a set of one LRU cache with no shared tier, and miss as long as
// the graph; entries of nodes order lacks are left as they are.
func (s *Set) ReplayRecording(fp *Footprint, order []dag.NodeID, miss []int32) ReplayOutcome {
	if s.cfg.P != 1 || s.cfg.Kind != LRU || s.cfg.LLCLines != 0 {
		panic(fmt.Sprintf("cache: recording replay on %+v", s.cfg))
	}
	s.empty(fp)
	c := &s.lru[0]
	var one [1]dag.BlockID
	for _, v := range order {
		before := c.misses
		for _, b := range fp.of(v, &one) {
			c.Access(b)
		}
		miss[v] = int32(c.misses - before)
	}
	out := ReplayOutcome{Misses: s.misses}
	tally(&out, s.lru)
	return out
}

// ReplayConverged returns the misses Replay(fp, order, who) returns — per
// worker and in total — simulating only each run's head. seqPred and seqMiss
// describe one sequential order of fp's graph: seqPred[v] is v's predecessor
// in it (dag.None for its first node), and seqMiss[v] what ReplayRecording
// through an LRU cache of s's C lines wrote for v. The result holds for any
// order and assignment (who = nil puts everything on worker 0), legal
// schedule or not. Its Accesses counts the accesses simulated, the heads',
// not every access of the schedule. s must be a configuration that Converges
// on fp.
func (s *Set) ReplayConverged(fp *Footprint, order []dag.NodeID, who []int32, seqPred []dag.NodeID, seqMiss []int32) ReplayOutcome {
	if !s.cfg.Converges(fp) {
		panic(fmt.Sprintf("cache: converged replay on %+v over %d blocks", s.cfg, len(fp.raw)))
	}
	s.empty(fp)
	lines := int32(s.cfg.Lines)
	if len(s.runs) != s.cfg.P {
		s.runs = make([]run, s.cfg.P)
	}
	// Every worker starts converged: its empty cache is the sequential cache
	// before the order's first node, which is what dag.None stands for.
	var epoch int32
	for p := range s.runs {
		c := &s.lru[p]
		if len(c.stamp) != cap(c.entries) {
			c.stamp = make([]int32, cap(c.entries))
		}
		clear(c.stamp)
		s.runs[p] = run{last: dag.None, seen: lines}
	}
	runs := s.runs
	var one [1]dag.BlockID
	for _, v := range order {
		p := int32(0)
		if who != nil {
			p = who[v]
		}
		r := &runs[p]
		pred := seqPred[v]
		if pred == r.last && r.seen >= lines {
			r.last = v
			r.charged += int64(seqMiss[v])
			continue
		}
		c := &s.lru[p]
		if pred != r.last {
			// A new run. A converged one leaves the sequential cache.
			if r.seen >= lines {
				c.rebuild(fp, seqPred, r.last)
			}
			epoch++
			r.epoch, r.seen = epoch, 0
		}
		r.last = v
		for _, b := range fp.of(v, &one) {
			c.Access(b)
			// b is now the head, on the line it hit or took.
			if c.stamp[c.head] != r.epoch {
				c.stamp[c.head] = r.epoch
				r.seen++
			}
		}
	}
	out := ReplayOutcome{Misses: s.misses}
	for p := range s.lru {
		c := &s.lru[p]
		s.misses[p] = runs[p].charged + c.misses
		out.TotalMisses += s.misses[p]
		out.Accesses += c.accesses
	}
	return out
}

// rebuild refills l with the sequential cache after node u: the most
// recently used distinct blocks of the sequential order up to u, as many as
// l holds, found walking seqPred back from u, most recent first (none when u
// is dag.None). Its counters are kept.
func (l *lru) rebuild(fp *Footprint, seqPred []dag.NodeID, u dag.NodeID) {
	l.forget()
	var one [1]dag.BlockID
	for v := u; v != dag.None && len(l.entries) < cap(l.entries); v = seqPred[v] {
		bs := fp.of(v, &one)
		for k := len(bs) - 1; k >= 0 && len(l.entries) < cap(l.entries); k-- {
			if _, ok := l.index.get(bs[k]); !ok {
				l.pushBack(bs[k])
			}
		}
	}
}

// pushBack puts block b, which is not resident, on a free line as the least
// recently used.
func (l *lru) pushBack(b dag.BlockID) {
	i := int32(len(l.entries))
	l.entries = append(l.entries, lruEntry{block: b, prev: i, next: i})
	l.index.put(b, i)
	if i > 0 {
		// pushFront without the new head: the line joins behind the tail.
		head := l.head
		l.pushFront(i)
		l.head = head
	}
}
