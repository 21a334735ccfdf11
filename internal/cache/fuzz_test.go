package cache

import (
	"testing"

	"futurelocality/internal/dag"
)

// Op bytes of a FuzzCachePolicies input, after the two header bytes
// (capacity, key mode). Every other byte accesses a block.
const (
	opNoBlock = 0xff
	opReset   = 0xfe
	keySpace  = 48 // distinct blocks an input can name
)

// fuzzKeys maps a key number to a block identity under the input's key
// mode: small dense IDs; multiples of a stride that both set counts a C-line
// cache can have (4-way, direct-mapped) divide, so that every key lands in
// set 0; keys three by three on the first three sets; and IDs spread over
// the whole int32 range, negative ones included.
func fuzzKeys(mode byte, c int) [keySpace]dag.BlockID {
	var keys [keySpace]dag.BlockID
	stride := c * max(c/4, 1)
	for i := range keys {
		switch mode % 4 {
		case 0:
			keys[i] = dag.BlockID(i)
		case 1:
			keys[i] = dag.BlockID(i * stride)
		case 2:
			keys[i] = dag.BlockID(i/3*3*stride + i%3)
		default:
			keys[i] = dag.BlockID(uint32(i+1) * 0x9e3779b1)
		}
	}
	return keys
}

// FuzzCachePolicies drives every Kind and its reference model with one
// byte-derived block trace and demands the same miss or hit on every access,
// the same counters after every operation — Reset included — and, for the
// whole trace, the same Belady-OPT miss count from OptimalMisses and its
// reference. The references are fed the keys themselves. LRU, FIFO and OPT
// are fed each key's number in the key space, a dense id, as a graph or a
// footprint numbers its blocks; the set-associative caches place a block by
// its identity and are fed the key.
func FuzzCachePolicies(f *testing.F) {
	seq := func(header []byte, runs ...[]byte) []byte {
		for _, r := range runs {
			header = append(header, r...)
		}
		return header
	}
	count := func(n int) []byte { // 0, 1, …, n-1
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i)
		}
		return out
	}
	f.Add([]byte{0, 0, 1, 2, 1, 2, 2, 1})                                // C = 1
	f.Add(seq([]byte{0, 2}, count(6), count(6)))                         // C = 1, three sets' keys
	f.Add(seq([]byte{7, 1}, count(20), count(20)))                       // every key in set 0
	f.Add(seq([]byte{7, 2}, count(30), []byte{3, 1, 4, 1, 5}, count(9))) // three sets, C = 8
	f.Add(seq([]byte{31, 2}, count(keySpace), count(keySpace)))          // three sets, C = 32
	f.Add([]byte{7, 2, 0, 3, 1, 2, 4, 5, 7, 8, 10, 3})
	f.Add([]byte{3, 0, opNoBlock, opNoBlock, 1, opNoBlock, opNoBlock, 1, 2, opNoBlock})
	f.Add(seq([]byte{4, 0}, count(keySpace), count(keySpace))) // far more than 2C distinct blocks
	f.Add(seq([]byte{4, 3}, count(keySpace), count(12)))       // the same over the whole ID range
	f.Add(seq([]byte{5, 2}, count(10), []byte{opReset}, count(10), []byte{opReset, opReset, 2, 2}))
	f.Add(seq([]byte{15, 1}, count(40), []byte{7, 6, 5, opReset, 5, 6, 7}, count(40)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		c := 1 + int(data[0])%40
		keys := fuzzKeys(data[1], c)
		type subject struct {
			kind      Kind
			got, want model
		}
		var subjects []subject
		for _, kind := range Kinds {
			subjects = append(subjects, subject{kind, newCache(kind, c), newReference(kind, c)})
		}
		var trace, ids []dag.BlockID
		for si, s := range subjects {
			got, want := s.got, s.want
			for i, op := range data[2:] {
				switch op {
				case opReset:
					got.Reset()
					want.Reset()
				default:
					b, id := dag.NoBlock, dag.NoBlock
					if op != opNoBlock {
						id = dag.BlockID(int(op) % keySpace)
						b = keys[id]
					}
					if si == 0 {
						trace, ids = append(trace, b), append(ids, id)
					}
					if s.kind == SetAssocLRU || s.kind == DirectMapped {
						id = b
					}
					if g, w := got.Access(id), want.Access(b); g != w {
						t.Fatalf("%s C=%d op %d: access to block %d missed=%v, reference %v", s.kind, c, i, b, g, w)
					}
				}
				if got.Misses() != want.Misses() || got.Accesses() != want.Accesses() {
					t.Fatalf("%s C=%d after op %d: %d misses of %d accesses, reference %d of %d",
						s.kind, c, i, got.Misses(), got.Accesses(), want.Misses(), want.Accesses())
				}
			}
		}
		// What directTable.fit relies on: a cache that is Reset leaves
		// nothing behind in its table.
		l, f := subjects[LRU].got.(*lru), subjects[FIFO].got.(*fifo)
		l.Reset()
		f.Reset()
		for b := range testUniverse {
			if l.index[b] != 0 || f.index[b] != 0 {
				t.Fatalf("C=%d: block %d still in a direct table after Reset (lru %d, fifo %d)", c, b, l.index[b], f.index[b])
			}
		}
		if got, want := OptimalMisses(ids, c), optimalMissesReference(trace, c); got != want {
			t.Fatalf("OptimalMisses C=%d over %d accesses = %d, reference %d", c, len(trace), got, want)
		}
	})
}
