// Package sim implements the parsimonious work-stealing scheduler of
// Section 3 as a deterministic discrete simulator, following the
// Arora–Blumofe–Plaxton execution model the paper builds on:
//
//   - every node is one unit of work;
//   - executing a node enables the children whose last dependency it was;
//   - 1 enabled child → the processor continues with it;
//   - 2 enabled children at a fork → one is executed, the other pushed on the
//     bottom of the processor's deque, chosen by the fork policy (the paper's
//     "future thread first" vs "parent thread first");
//   - 0 enabled children → the processor pops the bottom of its own deque;
//     if the deque is empty it steals from the top of a victim's deque.
//
// The steal side of the discipline is itself a policy (Config.Steal, the
// shared policy.StealPolicy vocabulary): RandomSingle is Section 3's
// parsimonious single top-steal, while StealHalf, LastVictimAffinity and
// Hierarchical replay the same DAG under disciplines the theorems'
// assumptions exclude, so their deviation cost can be measured against the
// baseline. Any (fork × steal) pair is expressible, and Config.Domains
// groups processors into cache-locality domains so every steal is
// attributed intra- vs cross-domain.
//
// Each processor owns a private cache simulator (Section 3's model); a node
// that declares a memory block accesses it when executed.
//
// The simulator is single-goroutine and fully deterministic given its
// Control, which decides which processors act and whom they steal from. This
// is what makes the paper's adversarial proof schedules replayable (package
// adversary) while random controls model the expectation bounds.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/deque"
	"futurelocality/internal/policy"
)

// ProcID identifies a simulated processor, 0-based.
type ProcID int32

// NoProc is the sentinel "no processor" value.
const NoProc ProcID = -1

// ForkPolicy selects which fork child the executing processor continues
// with; the sibling is pushed onto its deque (Section 3). It is the shared
// policy.Discipline vocabulary: the same constants configure the real
// runtime (internal/runtime), so a simulator replay and a live run name
// their fork discipline with one type.
type ForkPolicy = policy.Discipline

const (
	// FutureFirst executes the future thread (left child) and pushes the
	// parent continuation — the policy Theorem 8 analyzes.
	FutureFirst = policy.FutureFirst
	// ParentFirst executes the parent continuation (right child) and pushes
	// the future thread — the policy Theorem 10 shows is bad.
	ParentFirst = policy.ParentFirst
)

// StealPolicy selects whom a thief robs and how much one visit takes. It
// is the shared policy.StealPolicy vocabulary: the real runtime names its one
// steal rule with the same constants (RandomSingle or Hierarchical, by its
// topology), so a simulator replay and a live run name their steal
// discipline with one type. StealHalf and LastVictimAffinity exist here only.
type StealPolicy = policy.StealPolicy

const (
	// RandomSingle steals one node from the victim's top — the parsimonious
	// discipline of Section 3 that every theorem assumes. Default.
	RandomSingle = policy.RandomSingle
	// StealHalf steals half the victim's deque per visit: the thief
	// executes the oldest stolen node and pushes the rest onto its own
	// deque. Outside the theorems' assumptions — each displaced node that
	// executes out of sequential order is its own deviation.
	StealHalf = policy.StealHalf
	// LastVictimAffinity retries the victim of the thief's last successful
	// steal (while it has work) before consulting the Control's victim
	// choice. Outside the theorems' assumptions (victims are not uniform).
	LastVictimAffinity = policy.LastVictimAffinity
	// Hierarchical exhausts same-domain victims (Config.Domains) before
	// consulting the Control's victim choice for a cross-domain probe.
	// Outside the theorems' assumptions (victims are not uniform).
	Hierarchical = policy.Hierarchical
)

// StealPolicies lists every defined steal policy — the iteration set for
// (fork × steal) sweeps.
var StealPolicies = policy.StealPolicies

// Config parameterizes a simulation run.
type Config struct {
	// P is the number of processors (≥ 1).
	P int
	// Policy is the fork policy (default FutureFirst).
	Policy ForkPolicy
	// Steal is the steal policy (default RandomSingle — the discipline of
	// Section 3). Together with Policy it spans the (fork × steal) grid a
	// DAG can be replayed under.
	Steal StealPolicy
	// Domains assigns each processor to a cache-locality (LLC) domain —
	// Domains[p] is processor p's domain ID. When non-nil its length must
	// equal P. It drives the Hierarchical policy's victim preference and
	// the Result's intra- vs cross-domain steal attribution (under every
	// policy). Nil means one flat domain: every steal is intra-domain and
	// Hierarchical degenerates to a deterministic scan of all victims.
	Domains []int
	// CacheLines is C, the per-processor cache capacity in lines; 0 disables
	// cache simulation (deviation-only runs are much faster).
	CacheLines int
	// CacheKind selects the replacement policy (default LRU).
	CacheKind cache.Kind
	// Control decides processor activity and steal victims; default is
	// NewRandomControl(1).
	Control Control
	// MaxIdleSweeps aborts the run if this many consecutive whole-machine
	// sweeps make no progress (guards against misbehaving controls);
	// default 100000.
	MaxIdleSweeps int
	// ThiefStealsBottom is an ablation switch: thieves take the BOTTOM of
	// the victim's deque instead of the top, violating the parsimonious
	// discipline of Section 3. The paper's bounds assume top-stealing
	// (thieves take the shallowest, oldest continuation); bottom-stealing
	// robs the victim of exactly the node it would run next, and the
	// locality experiments show it measurably increases deviations.
	ThiefStealsBottom bool
	// CentralQueue is an ablation switch replacing the whole deque
	// discipline with a single shared FIFO queue: every enabled node is
	// enqueued globally and processors take from the head — a breadth-first
	// scheduler with no depth-first continuation at all. This is the
	// baseline the parsimonious model improves on; its locality is poor
	// even at P = 1. Fork policy and steal controls are ignored in this
	// mode.
	CentralQueue bool
}

// Result captures everything the analyses need about one execution.
type Result struct {
	// Order is the per-processor execution order of node IDs.
	Order [][]dag.NodeID
	// When maps node ID → global execution index (0-based, dense over all
	// executed nodes, consistent with the dependency order).
	When []int64
	// Who maps node ID → executing processor.
	Who []ProcID
	// Misses is per-processor cache misses (empty when CacheLines == 0).
	Misses []int64
	// TotalMisses is the sum of Misses.
	TotalMisses int64
	// StealAttempts counts steal attempts; Steals counts stolen nodes (under
	// StealHalf one visit can steal several).
	StealAttempts, Steals int64
	// StealVisits counts successful steal visits — equal to Steals except
	// under StealHalf, where Steals/StealVisits is the mean batch size.
	StealVisits int64
	// IntraSteals and CrossSteals split Steals by cache locality: whether
	// the thief and the victim sat in different Config.Domains groups.
	// With nil Domains every steal is intra-domain.
	IntraSteals, CrossSteals int64
	// Stolen lists the stolen nodes in steal order (length == Steals).
	Stolen []dag.NodeID
	// Pops counts successful pops from the processor's own deque.
	Pops int64
	// Steps is the number of whole-machine sweeps taken.
	Steps int64
	// Policy and P echo the configuration.
	Policy ForkPolicy
	// Steal echoes the steal policy of the run.
	Steal StealPolicy
	// P is the processor count of the run.
	P int
}

// ErrStuck is returned when the machine makes no progress for
// MaxIdleSweeps consecutive sweeps.
var ErrStuck = errors.New("sim: no progress (control starved the machine?)")

// Engine is a simulator instance: New prepares one for a run, Run drives it,
// and Reset prepares the same engine for another run — of any graph under
// any configuration — on the storage the last run left behind, which is what
// a loop of trials wants. An engine belongs to one goroutine at a time. The
// zero value is ready for Reset.
type Engine struct {
	g    *dag.Graph
	cfg  Config
	ctrl Control
	view View
	// Per-node state.
	waiting []int32 // remaining unexecuted parents
	when    []int64
	who     []ProcID
	// Per-processor state. orders and caches may be longer than cfg.P: only
	// the first cfg.P entries belong to the current run, an earlier, wider
	// run's stay behind them for the next.
	assigned []dag.NodeID
	deques   []deque.Seq[dag.NodeID]
	orders   [][]dag.NodeID
	// caches are the in-engine caches of the last run that had any, all of
	// cacheKind and cacheLines; this run uses them when cfg.CacheLines > 0.
	caches     []cache.Cache
	cacheKind  cache.Kind
	cacheLines int
	// central is the shared FIFO used only in CentralQueue mode.
	central  deque.Seq[dag.NodeID]
	executed int64
	seq      int64 // global execution counter
	steps    int64
	stealAtt int64
	stolen   []dag.NodeID
	steals   int64
	visits   int64
	pops     int64
	intra    int64 // intra-domain stolen nodes
	cross    int64 // cross-domain stolen nodes
	// lastVictim is the per-processor affinity cache (LastVictimAffinity
	// only): the victim of the processor's last successful steal, or NoProc.
	lastVictim []ProcID
	// res and misses are what Run returns, kept here so that a reused engine
	// allocates neither again.
	res    Result
	misses []int64
}

// New prepares an engine for a run over g: Reset on a new Engine.
func New(g *dag.Graph, cfg Config) (*Engine, error) {
	e := new(Engine)
	if err := e.Reset(g, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// resize returns s with length n, on its own storage when that is large
// enough. The contents are the caller's to set.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Reset prepares e for a run over g under cfg. It is the one initialiser:
// every field a run reads is set here from g and cfg alone, so a reused
// engine runs exactly as a new one does. The Result of e's previous run
// aliases the storage Reset hands to the next, and is dead from this call on.
// On error e is unchanged.
func (e *Engine) Reset(g *dag.Graph, cfg Config) error {
	if cfg.P < 1 {
		return fmt.Errorf("sim: P = %d", cfg.P)
	}
	if !cfg.Steal.Valid() {
		return fmt.Errorf("sim: steal policy %s", cfg.Steal)
	}
	if cfg.Control == nil {
		cfg.Control = NewRandomControl(1)
	}
	if cfg.Domains != nil && len(cfg.Domains) != cfg.P {
		return fmt.Errorf("sim: len(Domains) = %d, want P = %d", len(cfg.Domains), cfg.P)
	}
	if cfg.MaxIdleSweeps == 0 {
		cfg.MaxIdleSweeps = 100000
	}
	e.g, e.cfg, e.ctrl, e.view = g, cfg, cfg.Control, View{e: e}
	e.executed, e.seq, e.steps, e.stealAtt = 0, 0, 0, 0
	e.steals, e.visits, e.pops, e.intra, e.cross = 0, 0, 0, 0, 0
	e.stolen = e.stolen[:0]
	e.central.Reset()

	n := g.Len()
	e.waiting, e.when, e.who = resize(e.waiting, n), resize(e.when, n), resize(e.who, n)
	for i := range e.when {
		e.when[i] = -1
		e.who[i] = NoProc
		e.waiting[i] = g.Nodes[i].NIn
	}

	e.assigned, e.deques = resize(e.assigned, cfg.P), resize(e.deques, cfg.P)
	for p := range e.assigned {
		e.assigned[p] = dag.None
		e.deques[p].Reset()
	}
	e.lastVictim = e.lastVictim[:0]
	if cfg.Steal == LastVictimAffinity {
		e.lastVictim = resize(e.lastVictim, cfg.P)
		for p := range e.lastVictim {
			e.lastVictim[p] = NoProc
		}
	}
	// Orders and caches own storage worth keeping, so these two slices only
	// ever grow; the run uses their first cfg.P entries.
	e.orders = slices.Grow(e.orders, max(0, cfg.P-len(e.orders)))
	for p := 0; p < cfg.P; p++ {
		if p == len(e.orders) {
			// An even share each (everything, at P = 1); a processor that
			// ends up executing more grows its order by append.
			e.orders = append(e.orders, make([]dag.NodeID, 0, n/cfg.P+1))
		}
		e.orders[p] = e.orders[p][:0]
	}
	if cfg.CacheLines > 0 {
		if e.cacheKind != cfg.CacheKind || e.cacheLines != cfg.CacheLines {
			e.caches, e.cacheKind, e.cacheLines = nil, cfg.CacheKind, cfg.CacheLines
		}
		e.caches = slices.Grow(e.caches, max(0, cfg.P-len(e.caches)))
		for p := 0; p < cfg.P; p++ {
			if p == len(e.caches) {
				e.caches = append(e.caches, cache.New(cfg.CacheKind, cfg.CacheLines))
			}
			e.caches[p].Reset()
		}
	}
	// The root starts on processor 0.
	e.assigned[0] = g.Root
	return nil
}

// Run executes the whole computation and returns the result, which aliases
// the engine's storage: it is valid until the engine's next Reset.
func (e *Engine) Run() (*Result, error) {
	total := int64(e.g.Len())
	idle := 0
	for e.executed < total {
		progressed := false
		for p := ProcID(0); int(p) < e.cfg.P; p++ {
			if !e.ctrl.Active(p, &e.view) {
				continue
			}
			if e.act(p) {
				progressed = true
			}
		}
		e.steps++
		if progressed {
			idle = 0
		} else {
			idle++
			if idle >= e.cfg.MaxIdleSweeps {
				return nil, fmt.Errorf("%w: %d/%d nodes executed after %d sweeps",
					ErrStuck, e.executed, total, e.steps)
			}
		}
	}
	e.res = Result{
		Order:         e.orders[:e.cfg.P],
		When:          e.when,
		Who:           e.who,
		Stolen:        e.stolen,
		StealAttempts: e.stealAtt,
		Steals:        e.steals,
		StealVisits:   e.visits,
		IntraSteals:   e.intra,
		CrossSteals:   e.cross,
		Pops:          e.pops,
		Steps:         e.steps,
		Policy:        e.cfg.Policy,
		Steal:         e.cfg.Steal,
		P:             e.cfg.P,
	}
	if e.cfg.CacheLines > 0 {
		e.misses = resize(e.misses, e.cfg.P)
		for p := range e.misses {
			e.misses[p] = e.caches[p].Misses()
			e.res.TotalMisses += e.misses[p]
		}
		e.res.Misses = e.misses
	}
	return &e.res, nil
}

// act performs one processor activation; reports whether observable progress
// happened (a node executed, a pop succeeded, or a steal succeeded).
func (e *Engine) act(p ProcID) bool {
	if e.assigned[p] != dag.None {
		e.execute(p, e.assigned[p])
		return true
	}
	if e.cfg.CentralQueue {
		// Breadth-first baseline: take the oldest enabled node.
		if v, ok := e.central.StealTop(); ok {
			e.pops++
			e.execute(p, v)
			return true
		}
		return false
	}
	// Pop own deque; a popped node executes in the same activation (owner
	// pops are cheap; steals cost a full activation).
	if v, ok := e.deques[p].PopBottom(); ok {
		e.pops++
		e.execute(p, v)
		return true
	}
	// Steal. Victim choice: under LastVictimAffinity a processor returns to
	// the victim of its last successful steal while that victim still has
	// work (and falls back to random probing after a dry visit, so a victim
	// gone cold costs one probe); under Hierarchical it scans its
	// own locality domain for a victim with work before the cross-domain
	// fallback (mirroring the runtime's peers-then-remote tiers — the scan
	// is deterministic from p+1 so replays are exact); otherwise — and for
	// the other policies' fallbacks always — the Control decides.
	victim := NoProc
	switch e.cfg.Steal {
	case LastVictimAffinity:
		if lv := e.lastVictim[p]; lv != NoProc {
			if e.deques[lv].Len() > 0 {
				victim = lv
			} else {
				e.lastVictim[p] = NoProc
			}
		}
	case Hierarchical:
		for i := 1; i < e.cfg.P; i++ {
			c := ProcID((int(p) + i) % e.cfg.P)
			if e.sameDomain(p, c) && e.deques[c].Len() > 0 {
				victim = c
				break
			}
		}
	}
	if victim == NoProc {
		victim = e.ctrl.Victim(p, &e.view)
	}
	if victim == NoProc || victim == p || int(victim) >= e.cfg.P {
		return false
	}
	e.stealAtt++
	take := 1
	if e.cfg.Steal == StealHalf {
		// Half the victim's backlog, at least one node, capped at the
		// policy's shared batch bound — the thief executes the first
		// (oldest) and parks the rest on its own deque in stolen order
		// (deque top stays oldest), under the cap a real thief's batch
		// buffer would have, so replayed batch geometry matches what a
		// batch-stealing scheduler could do.
		if l := e.deques[victim].Len(); l > 2 {
			take = (l + 1) / 2
			if take > policy.StealBatchMax {
				take = policy.StealBatchMax
			}
		}
	}
	taken := 0
	for i := 0; i < take; i++ {
		var v dag.NodeID
		var ok bool
		if e.cfg.ThiefStealsBottom {
			// The ablation composes: each batch item robs the victim's
			// bottom instead of its top.
			v, ok = e.deques[victim].PopBottom()
		} else {
			v, ok = e.deques[victim].StealTop()
		}
		if !ok {
			break
		}
		e.steals++
		if e.sameDomain(p, victim) {
			e.intra++
		} else {
			e.cross++
		}
		e.stolen = append(e.stolen, v)
		if taken == 0 {
			e.assigned[p] = v
		} else {
			e.deques[p].PushBottom(v)
		}
		taken++
	}
	if taken == 0 {
		return false
	}
	e.visits++
	if e.cfg.Steal == LastVictimAffinity {
		e.lastVictim[p] = victim
	}
	return true
}

// sameDomain reports whether processors a and b share a locality domain
// (always true with no Domains configured — one flat domain).
func (e *Engine) sameDomain(a, b ProcID) bool {
	if e.cfg.Domains == nil {
		return true
	}
	return e.cfg.Domains[a] == e.cfg.Domains[b]
}

// execute runs node v on processor p and chooses p's next assignment.
func (e *Engine) execute(p ProcID, v dag.NodeID) {
	if e.waiting[v] != 0 {
		panic(fmt.Sprintf("sim: node %d executed with %d unmet dependencies", v, e.waiting[v]))
	}
	n := &e.g.Nodes[v]
	e.when[v] = e.seq
	e.seq++
	e.who[v] = p
	e.orders[p] = append(e.orders[p], v)
	e.executed++
	if e.cfg.CacheLines > 0 {
		e.caches[p].Access(n.Block)
	}

	// Enable children.
	var enabled [2]dag.NodeID
	var kinds [2]dag.EdgeKind
	ne := 0
	for _, edge := range n.OutEdges() {
		e.waiting[edge.To]--
		if e.waiting[edge.To] < 0 {
			panic(fmt.Sprintf("sim: node %d over-enabled", edge.To))
		}
		if e.waiting[edge.To] == 0 {
			enabled[ne] = edge.To
			kinds[ne] = edge.Kind
			ne++
		}
	}

	if e.cfg.CentralQueue {
		// No continuations: every enabled node joins the global FIFO.
		for i := 0; i < ne; i++ {
			e.central.PushBottom(enabled[i])
		}
		e.assigned[p] = dag.None
		return
	}

	switch ne {
	case 0:
		e.assigned[p] = dag.None
	case 1:
		e.assigned[p] = enabled[0]
	default:
		// Two children enabled. At a fork the policy picks; at a future
		// parent whose touch was already locally enabled, the processor
		// stays on its own thread (continuation) and pushes the touch.
		exec, push := 0, 1
		if n.IsFork() {
			futureIdx := 0
			if kinds[1] == dag.EdgeFuture {
				futureIdx = 1
			}
			if e.cfg.Policy == FutureFirst {
				exec, push = futureIdx, 1-futureIdx
			} else {
				exec, push = 1-futureIdx, futureIdx
			}
		} else {
			contIdx := -1
			for i := 0; i < ne; i++ {
				if kinds[i] == dag.EdgeCont {
					contIdx = i
				}
			}
			if contIdx >= 0 {
				exec, push = contIdx, 1-contIdx
			}
		}
		e.deques[p].PushBottom(enabled[push])
		e.assigned[p] = enabled[exec]
	}
}

// Sequential runs the one-processor parsimonious execution of g under the
// given fork policy, with optional cache simulation, returning its result.
// This is the baseline against which deviations and additional misses are
// defined.
func Sequential(g *dag.Graph, policy ForkPolicy, cacheLines int, kind cache.Kind) (*Result, error) {
	eng, err := New(g, Config{
		P:          1,
		Policy:     policy,
		CacheLines: cacheLines,
		CacheKind:  kind,
		Control:    AlwaysActive{},
	})
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// Validate cross-checks a result against the graph: every node executed
// exactly once, no edge ran backwards in global order, and each processor's
// local order is the nodes Who assigns it, in increasing global order. Used
// by tests and the fuzz targets; O(V+E).
func (r *Result) Validate(g *dag.Graph) error {
	counted := int64(0)
	for p, ord := range r.Order {
		counted += int64(len(ord))
		last := int64(-1)
		for _, v := range ord {
			if r.Who[v] != ProcID(p) {
				return fmt.Errorf("sim: node %d in proc %d's order but Who says %d", v, p, r.Who[v])
			}
			if r.When[v] <= last {
				return fmt.Errorf("sim: proc %d order not increasing at node %d", p, v)
			}
			last = r.When[v]
		}
	}
	if counted != g.Work() {
		return fmt.Errorf("sim: executed %d of %d nodes", counted, g.Work())
	}
	for id := range g.Nodes {
		if r.When[id] < 0 {
			return fmt.Errorf("sim: node %d never executed", id)
		}
		for _, edge := range g.Nodes[id].OutEdges() {
			if r.When[edge.To] <= r.When[id] {
				return fmt.Errorf("sim: edge %d->%d executed out of order (%d, %d)",
					id, edge.To, r.When[id], r.When[edge.To])
			}
		}
	}
	return nil
}

// SeqOrder flattens a sequential (P=1) result into its single order slice.
func (r *Result) SeqOrder() []dag.NodeID {
	if r.P != 1 {
		panic("sim: SeqOrder on a parallel result")
	}
	return r.Order[0]
}
