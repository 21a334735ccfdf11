package cache

import (
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
)

// The rungs of the analysis-side cost ladder this package owns: one cache
// access, one schedule replay, one OPT pass. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/cache

// cyclicTrace scans blocks 0..distinct-1 round and round: hit-heavy when
// they fit in the cache, all misses (for LRU and FIFO) when they do not.
func cyclicTrace(n, distinct int) []dag.BlockID {
	trace := make([]dag.BlockID, n)
	for i := range trace {
		trace[i] = dag.BlockID(i % distinct)
	}
	return trace
}

func BenchmarkLRUAccess(b *testing.B) {
	const lines = 64
	for _, kind := range []Kind{LRU, FIFO} {
		for _, tr := range []struct {
			name  string
			trace []dag.BlockID
		}{
			{"hits", cyclicTrace(4096, lines/2)},
			{"misses", cyclicTrace(4096, 4*lines)},
		} {
			b.Run(kind.String()+"/"+tr.name, func(b *testing.B) {
				c := newCache(kind, lines)
				i := 0
				for b.Loop() {
					c.Access(tr.trace[i])
					if i++; i == len(tr.trace) {
						i = 0
					}
				}
				b.ReportMetric(float64(c.Misses())/float64(c.Accesses()), "miss/access")
			})
		}
	}
}

// replayInput is the synthetic footprint of Fib(16,2) at the default window
// for C = 64, executed in ID order (a topological order, so a legal
// schedule) with each thread's nodes on worker thread mod 4.
func replayInput() (*Footprint, []dag.NodeID, []int32) {
	g := graphs.Fib(16, 2)
	order := make([]dag.NodeID, g.Len())
	who := make([]int32, g.Len())
	for v := range order {
		order[v] = dag.NodeID(v)
		who[v] = int32(g.Nodes[v].Thread) % 4
	}
	return DeriveFootprint(g, 63), order, who
}

func BenchmarkReplay(b *testing.B) {
	fp, order, who := replayInput()
	set, err := NewSet(SetConfig{P: 4, Kind: LRU, Lines: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var accesses int64
	for b.Loop() {
		accesses += set.Replay(fp, order, who).Accesses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}

// BenchmarkReplayConverged replays BenchmarkReplay's footprint in runs:
// ID order, which is Fib's future-first order and the sequential one here,
// dealt to the four workers 256 nodes at a time, so each worker deviates
// every 256 nodes. Both the converged and the full replay of that schedule
// are timed. ns/access divides by every access of the schedule, the ones
// charged from the sequential record included; simulated/access is the share
// of accesses the converged replay simulates.
func BenchmarkReplayConverged(b *testing.B) {
	fp, order, who := replayInput()
	seqPred := make([]dag.NodeID, len(order))
	for v := range seqPred {
		seqPred[v] = dag.NodeID(v - 1)
		who[v] = int32(v / 256 % 4)
	}
	seqSet, err := NewSet(SetConfig{P: 1, Kind: LRU, Lines: 64})
	if err != nil {
		b.Fatal(err)
	}
	seqMiss := make([]int32, len(order))
	total := seqSet.ReplayRecording(fp, order, seqMiss).Accesses
	set, err := NewSet(SetConfig{P: 4, Kind: LRU, Lines: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("converged", func(b *testing.B) {
		b.ReportAllocs()
		var simulated int64
		for b.Loop() {
			simulated += set.ReplayConverged(fp, order, who, seqPred, seqMiss).Accesses
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total)/float64(b.N), "ns/access")
		b.ReportMetric(float64(simulated)/float64(total)/float64(b.N), "simulated/access")
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			set.Replay(fp, order, who)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total)/float64(b.N), "ns/access")
	})
}

func BenchmarkOptimalMisses(b *testing.B) {
	fp, order, _ := replayInput()
	trace := fp.Flatten(order)
	b.ReportAllocs()
	for b.Loop() {
		OptimalMisses(trace, 64)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(trace)), "ns/access")
}

func BenchmarkDeriveFootprint(b *testing.B) {
	g := graphs.Fib(16, 2)
	b.ReportAllocs()
	for b.Loop() {
		DeriveFootprint(g, 63)
	}
}
