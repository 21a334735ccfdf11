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

// fuzzKeys maps an op byte to a block under the input's key mode: small
// dense IDs; multiples of the table size; IDs whose home slots in a C-line
// cache's table are three neighbours (key i's is the first plus i mod 3),
// so the table is one long probe run of interleaved homes that every
// eviction has to shift; and IDs spread over the whole int32 range,
// negative ones included.
func fuzzKeys(mode byte, c int) [keySpace]dag.BlockID {
	var keys [keySpace]dag.BlockID
	t := newBlockTable(c)
	switch mode % 4 {
	case 0:
		for i := range keys {
			keys[i] = dag.BlockID(i)
		}
	case 1:
		for i := range keys {
			keys[i] = dag.BlockID(i * len(t.slots))
		}
	case 2:
		mask := uint32(len(t.slots) - 1)
		for i, b := 0, dag.BlockID(0); i < keySpace; b++ {
			if t.home(b) == (t.home(0)+uint32(i%3))&mask {
				keys[i] = b
				i++
			}
		}
	default:
		for i := range keys {
			keys[i] = dag.BlockID(uint32(i+1) * 0x9e3779b1)
		}
	}
	return keys
}

// FuzzCachePolicies drives every Kind and its reference model with one
// byte-derived block trace and demands the same miss or hit on every access,
// the same counters after every operation — Reset included — and, for the
// whole trace, the same Belady-OPT miss count from OptimalMisses and its
// reference. LRU and FIFO run twice: as New builds them, hashing the keys,
// and over a direct table indexed by each key's number in the key space,
// against the same references fed the keys themselves.
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
	f.Add(seq([]byte{0, 2}, count(6), count(6)))                         // C = 1, one probe run
	f.Add(seq([]byte{7, 1}, count(20), count(20)))                       // multiples of the table size
	f.Add(seq([]byte{7, 2}, count(30), []byte{3, 1, 4, 1, 5}, count(9))) // one probe run, C = 8
	f.Add(seq([]byte{31, 2}, count(keySpace), count(keySpace)))          // one probe run, C = 32
	// C = 8: blocks 0 and 3 share a home slot; evicting 0 must move 3 back
	// into it, or the last access cannot find 3.
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
			name      string
			got, want Cache
			dense     bool // got takes the key's number, want the key
		}
		var subjects []subject
		for _, kind := range Kinds {
			subjects = append(subjects, subject{kind.String(), New(kind, c), newReference(kind, c), false})
		}
		l, f := newLRU(c, make(directTable, keySpace)), newFIFO(c, make(directTable, keySpace))
		subjects = append(subjects,
			subject{"lru/direct", &l, newRefLRU(c), true},
			subject{"fifo/direct", &f, newRefFIFO(c), true})
		var trace []dag.BlockID
		for si, s := range subjects {
			got, want := s.got, s.want
			if got.Lines() != want.Lines() {
				t.Fatalf("%s C=%d: %d lines, reference %d", s.name, c, got.Lines(), want.Lines())
			}
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
						trace = append(trace, b)
					}
					if !s.dense {
						id = b
					}
					if g, w := got.Access(id), want.Access(b); g != w {
						t.Fatalf("%s C=%d op %d: access to block %d missed=%v, reference %v", s.name, c, i, b, g, w)
					}
				}
				if got.Misses() != want.Misses() || got.Accesses() != want.Accesses() {
					t.Fatalf("%s C=%d after op %d: %d misses of %d accesses, reference %d of %d",
						s.name, c, i, got.Misses(), got.Accesses(), want.Misses(), want.Accesses())
				}
			}
		}
		// What directTable.fit relies on: a cache that is Reset leaves
		// nothing behind in its table.
		l.Reset()
		f.Reset()
		for b := range keySpace {
			if l.index[b] != 0 || f.index[b] != 0 {
				t.Fatalf("C=%d: block %d still in a direct table after Reset (lru %d, fifo %d)", c, b, l.index[b], f.index[b])
			}
		}
		if got, want := OptimalMisses(trace, c), optimalMissesReference(trace, c); got != want {
			t.Fatalf("OptimalMisses C=%d over %d accesses = %d, reference %d", c, len(trace), got, want)
		}
	})
}
