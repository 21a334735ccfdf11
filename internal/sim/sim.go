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
// The steal side of the discipline is Section 3's parsimonious single
// top-steal from a victim the Control picks (Config.Steal names it,
// RandomSingle — the runtime's one steal rule too).
//
// Each processor has a private cache (Section 3's model). The engine only
// schedules: when a run is asked for cache misses and the graph declares
// blocks, Run ends by replaying the schedule through P private caches.
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
)

// ProcID identifies a simulated processor, 0-based. It is an int32, so that
// a Result's Who is the worker table cache.Set.Replay takes.
type ProcID = int32

// NoProc is the sentinel "no processor" value.
const NoProc ProcID = -1

// ForkPolicy selects which fork child the executing processor continues
// with; the sibling is pushed onto its deque (Section 3). It is
// dag.Discipline: the same constants configure the real runtime
// (internal/runtime), so a simulator replay and a live run name their fork
// discipline with one type.
type ForkPolicy = dag.Discipline

const (
	// FutureFirst executes the future thread (left child) and pushes the
	// parent continuation — the policy Theorem 8 analyzes.
	FutureFirst = dag.FutureFirst
	// ParentFirst executes the parent continuation (right child) and pushes
	// the future thread — the policy Theorem 10 shows is bad.
	ParentFirst = dag.ParentFirst
)

// StealPolicy selects whom a thief robs; every visit takes one node.
type StealPolicy uint8

// RandomSingle steals one node from the top of the victim the Control picks —
// the parsimonious discipline of Section 3 that every theorem assumes, the
// runtime's one steal rule, and the only steal policy.
const RandomSingle StealPolicy = 0

// String names the steal policy.
func (s StealPolicy) String() string {
	if s == RandomSingle {
		return "random-single"
	}
	return fmt.Sprintf("stealpolicy(%d)", uint8(s))
}

// valid reports whether s is the defined steal policy.
func (s StealPolicy) valid() bool { return s == RandomSingle }

// Config parameterizes a simulation run.
type Config struct {
	// P is the number of processors (≥ 1).
	P int
	// Policy is the fork policy (default FutureFirst).
	Policy ForkPolicy
	// Steal is the steal policy; RandomSingle, the discipline of Section 3,
	// is the only valid one and the zero value.
	Steal StealPolicy
	// CacheLines is C, the per-processor cache capacity in lines; 0 disables
	// the miss count.
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

// Result captures everything the analyses need about one execution. The
// schedule is Order and Who: the sequence in which the nodes ran, over all
// processors, and who ran each. A processor's own order is the subsequence of
// Order that Who gives it.
type Result struct {
	// Order is the execution sequence: Order[k] is the k-th node to run.
	Order []dag.NodeID
	// When is Order's inverse: When[v] is node v's place in Order, so the
	// dependency order puts every edge's head after its tail.
	When []int32
	// Who maps node ID → the processor that ran it.
	Who []ProcID
	// Misses is per-processor cache misses: each processor's part of Order
	// replayed through a private cache of CacheLines lines that starts
	// empty. Empty when CacheLines == 0, zeros when the graph declares no
	// blocks.
	Misses []int64
	// TotalMisses is the sum of Misses.
	TotalMisses int64
	// StealAttempts counts steal attempts; Steals counts stolen nodes.
	StealAttempts, Steals int64
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
	// CacheLines and CacheKind echo the caches Misses was counted with.
	CacheLines int
	CacheKind  cache.Kind
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
	// The schedule, and all the per-node state there is: order[:executed]
	// is the sequence run so far, who[v] the processor that ran v, and
	// when[v] v's place in order once v has run. Before that when[v] counts
	// down v's parents still to run as −1 − that count, so −1 is ready.
	// Every entry of order and who is written before it is read.
	when     []int32
	who      []ProcID
	order    []dag.NodeID
	executed int
	// Per-processor state.
	assigned []dag.NodeID
	deques   []deque.Seq[dag.NodeID]
	// set holds cfg.P private caches of cfg's kind and size, through which
	// Run replays the schedule; it is kept while it serves the next run's
	// configuration.
	set *cache.Set
	// central is the shared FIFO used only in CentralQueue mode.
	central  deque.Seq[dag.NodeID]
	steps    int64
	stealAtt int64
	stolen   []dag.NodeID
	steals   int64
	pops     int64
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
	if !cfg.Policy.Valid() {
		return fmt.Errorf("sim: fork policy %s", cfg.Policy)
	}
	if !cfg.Steal.valid() {
		return fmt.Errorf("sim: steal policy %s", cfg.Steal)
	}
	if cfg.Control == nil {
		cfg.Control = NewRandomControl(1)
	}
	if cfg.MaxIdleSweeps == 0 {
		cfg.MaxIdleSweeps = 100000
	}
	if cfg.CacheLines < 0 {
		return fmt.Errorf("sim: CacheLines = %d", cfg.CacheLines)
	}
	set := e.set
	sc := cache.SetConfig{P: cfg.P, Kind: cfg.CacheKind, Lines: cfg.CacheLines}
	if cfg.CacheLines > 0 && (set == nil || !set.Serves(sc)) {
		var err error
		if set, err = cache.NewSet(sc); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	e.g, e.cfg, e.ctrl, e.view, e.set = g, cfg, cfg.Control, View{e: e}, set
	e.executed, e.steps, e.stealAtt = 0, 0, 0
	e.steals, e.pops = 0, 0
	e.stolen = e.stolen[:0]
	e.central.Reset()

	n := g.Len()
	e.when, e.who, e.order = resize(e.when, n), resize(e.who, n), resize(e.order, n)
	nodes := g.Nodes
	when := e.when[:len(nodes)]
	for i := range nodes {
		when[i] = -1 - nodes[i].NIn
	}

	e.assigned, e.deques = resize(e.assigned, cfg.P), resize(e.deques, cfg.P)
	for p := range e.assigned {
		e.assigned[p] = dag.None
		e.deques[p].Reset()
	}
	// The root starts on processor 0.
	e.assigned[0] = g.Root
	return nil
}

// Run executes the whole computation and returns the result, which aliases
// the engine's storage: it is valid until the engine's next Reset.
//
// Run is one loop over sweeps and, within a sweep, over processors; each
// activation executes at most one node. The graph and the schedule's tables
// live in locals for the run, and so does the executed count, which is
// stored back before every call into the Control (whose View reads the
// engine) and on return. Active is asked only of controls that are not one
// of the package's always-active ones.
func (e *Engine) Run() (*Result, error) {
	nodes := e.g.Nodes
	when, order, who := e.when[:len(nodes)], e.order[:len(nodes)], e.who[:len(nodes)]
	assigned, deques := e.assigned, e.deques
	ctrl, view := e.ctrl, &e.view
	P, total, executed := ProcID(e.cfg.P), len(nodes), e.executed
	central, bottom := e.cfg.CentralQueue, e.cfg.ThiefStealsBottom
	futureFirst := e.cfg.Policy == FutureFirst
	askActive := true
	switch ctrl.(type) {
	case *RandomControl, AlwaysActive:
		askActive = false
	}
	idle := 0
	for executed < total {
		progressed := false
		for p := ProcID(0); p < P; p++ {
			if askActive {
				e.executed = executed
				if !ctrl.Active(p, view) {
					continue
				}
			}
			v := assigned[p]
			if v == dag.None {
				var ok bool
				if central {
					// Breadth-first baseline: take the oldest enabled node.
					if v, ok = e.central.StealTop(); !ok {
						continue
					}
				} else if v, ok = deques[p].PopBottom(); !ok {
					// Steal one node from the victim the Control picks;
					// it runs at p's next activation.
					e.executed = executed
					victim := ctrl.Victim(p, view)
					if victim == NoProc || victim == p || victim >= P {
						continue
					}
					e.stealAtt++
					if bottom {
						v, ok = deques[victim].PopBottom()
					} else {
						v, ok = deques[victim].StealTop()
					}
					if ok {
						e.steals++
						e.stolen = append(e.stolen, v)
						assigned[p] = v
						progressed = true
					}
					continue
				}
				// A popped node executes in the same activation (owner
				// pops are cheap; steals cost a full activation).
				e.pops++
			}

			// Execute v on p.
			progressed = true
			if w := when[v]; w != -1 {
				panic(fmt.Sprintf("sim: node %d executed when not ready (when = %d)", v, w))
			}
			n := &nodes[v]
			when[v] = int32(executed)
			order[executed] = v
			who[v] = p
			executed++

			// Enable the children whose last parent v was, reading when
			// afresh for the second edge: a decoded graph may give both
			// edges one target. When both enable a child, push and next
			// hold them in edge order.
			next, push := dag.None, dag.None
			if n.NOut != 0 {
				to := n.Out[0].To
				w := when[to] + 1
				if w > -1 {
					panic(fmt.Sprintf("sim: node %d over-enabled", to))
				}
				when[to] = w
				if w == -1 {
					next = to
				}
				if n.NOut == 2 {
					to := n.Out[1].To
					w := when[to] + 1
					if w > -1 {
						panic(fmt.Sprintf("sim: node %d over-enabled", to))
					}
					when[to] = w
					if w == -1 {
						next, push = to, next
					}
				}
			}
			if push != dag.None && !central {
				// At a fork (one edge is a future) the policy picks; at a
				// future parent whose touch was already locally enabled, the
				// processor stays on its own thread (continuation) and
				// pushes the touch. The two edges' kinds tell which.
				k0, k1 := n.Out[0].Kind, n.Out[1].Kind
				fork := k0 == dag.EdgeFuture || k1 == dag.EdgeFuture
				if fork && (k1 == dag.EdgeFuture) != futureFirst || !fork && k1 != dag.EdgeCont {
					next, push = push, next
				}
			}

			if central {
				// No continuations: every enabled node joins the global
				// FIFO, in edge order.
				if push != dag.None {
					e.central.PushBottom(push)
				}
				if next != dag.None {
					e.central.PushBottom(next)
				}
				assigned[p] = dag.None
				continue
			}
			if push != dag.None {
				deques[p].PushBottom(push)
			}
			assigned[p] = next
		}
		e.steps++
		if progressed {
			idle = 0
		} else {
			idle++
			if idle >= e.cfg.MaxIdleSweeps {
				e.executed = executed
				return nil, fmt.Errorf("%w: %d/%d nodes executed after %d sweeps",
					ErrStuck, executed, total, e.steps)
			}
		}
	}
	e.executed = executed
	return e.result(), nil
}

// result fills in the Result of a finished run, counting its misses when the
// configuration asks for them.
func (e *Engine) result() *Result {
	e.res = Result{
		Order:         e.order,
		When:          e.when,
		Who:           e.who,
		Stolen:        e.stolen,
		StealAttempts: e.stealAtt,
		Steals:        e.steals,
		Pops:          e.pops,
		Steps:         e.steps,
		Policy:        e.cfg.Policy,
		Steal:         e.cfg.Steal,
		P:             e.cfg.P,
		CacheLines:    e.cfg.CacheLines,
		CacheKind:     e.cfg.CacheKind,
	}
	if e.cfg.CacheLines > 0 {
		e.misses = resize(e.misses, e.cfg.P)
		clear(e.misses)
		if len(e.g.RawBlocks) > 0 {
			// The processors' caches are private, have no shared tier and
			// start empty. The window is ignored: the graph declares its
			// blocks. Blocks that all fit in one cache are counted.
			fp := cache.FootprintOf(e.g, 1)
			var out cache.ReplayOutcome
			if (cache.SetConfig{P: e.cfg.P, Kind: e.cfg.CacheKind, Lines: e.cfg.CacheLines}).Fits(fp) {
				out = e.set.ReplayFit(fp, e.order, e.who)
			} else {
				out = e.set.Replay(fp, e.order, e.who)
			}
			copy(e.misses, out.Misses)
			e.res.TotalMisses = out.TotalMisses
		}
		e.res.Misses = e.misses
	}
	return &e.res
}

// Sequential runs the one-processor parsimonious execution of g under the
// given fork policy, with an optional miss count, returning its result.
// This is the baseline against which deviations and additional misses are
// defined.
func Sequential(g *dag.Graph, policy ForkPolicy, cacheLines int, kind cache.Kind) (*Result, error) {
	eng, err := New(g, seqConfig(policy, cacheLines, kind))
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// Sequential resets e for the sequential execution of g (the package-level
// Sequential) and runs it; the result aliases e as Run's does.
func (e *Engine) Sequential(g *dag.Graph, policy ForkPolicy, cacheLines int, kind cache.Kind) (*Result, error) {
	if err := e.Reset(g, seqConfig(policy, cacheLines, kind)); err != nil {
		return nil, err
	}
	return e.Run()
}

// seqConfig configures the sequential execution: one processor, always
// active.
func seqConfig(policy ForkPolicy, cacheLines int, kind cache.Kind) Config {
	return Config{P: 1, Policy: policy, CacheLines: cacheLines, CacheKind: kind, Control: AlwaysActive{}}
}

// Validate cross-checks a result against the graph: Order runs every node
// exactly once and When is its inverse, Who names one of the run's P
// processors for every node, and no edge ran backwards. Used by tests and the
// fuzz targets; O(V+E).
func (r *Result) Validate(g *dag.Graph) error {
	n := g.Len()
	if len(r.Order) != n || len(r.When) != n || len(r.Who) != n {
		return fmt.Errorf("sim: schedule of %d nodes (When %d, Who %d) for a graph of %d",
			len(r.Order), len(r.When), len(r.Who), n)
	}
	for k, v := range r.Order {
		if v < 0 || int(v) >= n || r.When[v] != int32(k) {
			return fmt.Errorf("sim: Order[%d] = %d, which When does not place there", k, v)
		}
		if p := r.Who[v]; p < 0 || int(p) >= r.P {
			return fmt.Errorf("sim: node %d ran on processor %d of %d", v, p, r.P)
		}
	}
	for id := range g.Nodes {
		for _, edge := range g.Nodes[id].OutEdges() {
			if r.When[edge.To] <= r.When[id] {
				return fmt.Errorf("sim: edge %d->%d executed out of order (%d, %d)",
					id, edge.To, r.When[id], r.When[edge.To])
			}
		}
	}
	return nil
}

// SeqOrder returns a sequential (P=1) result's order.
func (r *Result) SeqOrder() []dag.NodeID {
	if r.P != 1 {
		panic("sim: SeqOrder on a parallel result")
	}
	return r.Order
}
