package deque

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSeqLIFOOwner(t *testing.T) {
	var d Seq[int]
	for i := 0; i < 5; i++ {
		d.PushBottom(i)
	}
	for i := 4; i >= 0; i-- {
		v, ok := d.PopBottom()
		if !ok || v != i {
			t.Fatalf("PopBottom = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop from empty should fail")
	}
}

func TestSeqFIFOThief(t *testing.T) {
	var d Seq[int]
	for i := 0; i < 5; i++ {
		d.PushBottom(i)
	}
	for i := 0; i < 5; i++ {
		v, ok := d.StealTop()
		if !ok || v != i {
			t.Fatalf("StealTop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.StealTop(); ok {
		t.Fatal("steal from empty should fail")
	}
}

func TestSeqMixed(t *testing.T) {
	var d Seq[int]
	d.PushBottom(1)
	d.PushBottom(2)
	d.PushBottom(3)
	if v, _ := d.StealTop(); v != 1 {
		t.Fatalf("steal got %d want 1", v)
	}
	if v, _ := d.PopBottom(); v != 3 {
		t.Fatalf("pop got %d want 3", v)
	}
	if bot, _ := d.PeekBottom(); bot != 2 {
		t.Fatalf("peek bottom got %d want 2", bot)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d want 1", d.Len())
	}
	d.Reset()
	if d.Len() != 0 {
		t.Fatal("Reset did not empty")
	}
}

func TestSeqSnapshot(t *testing.T) {
	var d Seq[int]
	d.PushBottom(1)
	d.PushBottom(2)
	s := d.Snapshot()
	if len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Fatalf("Snapshot = %v", s)
	}
	s[0] = 99 // must not alias the deque
	if v, _ := d.StealTop(); v != 1 {
		t.Fatal("Snapshot aliases internal storage")
	}
}

func TestLockedBasics(t *testing.T) {
	var d Locked[string]
	d.PushBottom("a")
	d.PushBottom("b")
	if v, _ := d.StealTop(); v != "a" {
		t.Fatalf("steal got %q", v)
	}
	if v, _ := d.PopBottom(); v != "b" {
		t.Fatalf("pop got %q", v)
	}
	if d.Len() != 0 {
		t.Fatal("not empty")
	}
}

func TestLockedPushBottomN(t *testing.T) {
	var d Locked[int]
	d.PushBottom(0)
	d.PushBottomN([]int{1, 2, 3})
	d.PushBottomN(nil) // empty batch is a no-op
	if d.Len() != 4 {
		t.Fatalf("len = %d, want 4", d.Len())
	}
	// FIFO at the thief end: the batch lands in argument order after
	// whatever was already queued — identical to four single pushes.
	for want := 0; want < 4; want++ {
		v, ok := d.StealTop()
		if !ok || v != want {
			t.Fatalf("steal %d got %d, %v", want, v, ok)
		}
	}
}

func TestLockedLenTracksMutations(t *testing.T) {
	var d Locked[int]
	if d.Len() != 0 {
		t.Fatalf("empty Len = %d", d.Len())
	}
	d.PushBottom(1)
	d.PushBottomN([]int{2, 3, 4})
	if d.Len() != 4 {
		t.Fatalf("after pushes Len = %d, want 4", d.Len())
	}
	d.PopBottom()
	if d.Len() != 3 {
		t.Fatalf("after pop Len = %d, want 3", d.Len())
	}
	d.StealTop()
	d.StealTop()
	if d.Len() != 1 {
		t.Fatalf("after steals Len = %d, want 1", d.Len())
	}
	d.PopBottom()
	if _, ok := d.PopBottom(); ok || d.Len() != 0 {
		t.Fatalf("drained deque: ok=%v Len=%d", ok, d.Len())
	}
}

// TestLockedLenConcurrent hammers the deque from an owner and a gang of
// thieves while a reader polls Len: the snapshot must never go negative or
// exceed the total ever pushed, and must equal the exact count at
// quiescence. Run under -race this also proves the lock-free Len carries
// no data race.
func TestLockedLenConcurrent(t *testing.T) {
	var d Locked[int]
	const pushes = 2000
	var stolen, popped atomic.Int64
	stop := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() { // owner: push all, pop some
		defer close(ownerDone)
		for i := 0; i < pushes; i++ {
			d.PushBottom(i)
			if i%3 == 0 {
				if _, ok := d.PopBottom(); ok {
					popped.Add(1)
				}
			}
		}
	}()
	var thieves sync.WaitGroup
	for g := 0; g < 3; g++ {
		thieves.Add(1)
		go func() { // thieves run until told to stop
			defer thieves.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := d.StealTop(); ok {
					stolen.Add(1)
				}
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() { // reader: Len stays in range throughout
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := d.Len(); n < 0 || n > pushes {
				t.Errorf("Len = %d out of range [0,%d]", n, pushes)
				return
			}
		}
	}()
	<-ownerDone
	close(stop)
	thieves.Wait()
	<-readerDone
	want := pushes - int(stolen.Load()) - int(popped.Load())
	if d.Len() != want {
		t.Fatalf("quiescent Len = %d, want %d (stolen %d, popped %d)",
			d.Len(), want, stolen.Load(), popped.Load())
	}
}

// ---------------------------------------------------------------------------
// Ptr (pointer-specialized Chase–Lev) tests, including the dedicated
// multi-thief stress required by the Lê et al. ordering audit: run with
// -race to exercise the owner/thief handshakes.

func TestPtrSingleThread(t *testing.T) {
	d := NewPtr[int](2) // force growth
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 0; i < 50; i++ {
		v, ok := d.StealTop()
		if !ok || *v != i {
			t.Fatalf("StealTop = %v,%v want %d", v, ok, i)
		}
	}
	for i := 99; i >= 50; i-- {
		v, ok := d.PopBottom()
		if !ok || *v != i {
			t.Fatalf("PopBottom = %v,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop from empty should fail")
	}
	if _, ok := d.StealTop(); ok {
		t.Fatal("steal from empty should fail")
	}
}

func TestPtrPushNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PushBottom(nil) should panic (nil is the unpublished-slot sentinel)")
		}
	}()
	NewPtr[int](8).PushBottom(nil)
}

// TestPtrVsOracle drives Ptr and Locked with the same single-threaded
// operation sequence and demands identical results.
func TestPtrVsOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pd := NewPtr[int](4)
		var or Locked[int]
		store := make([]int, 0, 400)
		for i := 0; i < 400; i++ {
			store = append(store, i)
		}
		next := 0
		for op := 0; op < 400; op++ {
			switch rng.Intn(3) {
			case 0:
				pd.PushBottom(&store[next])
				or.PushBottom(next)
				next++
			case 1:
				v1, ok1 := pd.PopBottom()
				v2, ok2 := or.PopBottom()
				if ok1 != ok2 || (ok1 && *v1 != v2) {
					return false
				}
			case 2:
				v1, ok1 := pd.StealTop()
				v2, ok2 := or.StealTop()
				if ok1 != ok2 || (ok1 && *v1 != v2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPtrMultiThiefStress is the dedicated multi-thief stress test: one
// owner interleaves pushes and pops while many thieves steal concurrently,
// from a deliberately tiny initial buffer so steals race grow constantly.
// Every item must be consumed exactly once — a lost or duplicated item is
// exactly what a mis-ordered Chase–Lev produces. Run under -race in CI.
func TestPtrMultiThiefStress(t *testing.T) {
	const (
		items   = 100000
		thieves = 8
	)
	d := NewPtr[int](8)
	vals := make([]int, items)
	seen := make([]atomic.Int32, items)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})

	record := func(v *int) {
		if seen[*v].Add(1) != 1 {
			t.Errorf("item %d consumed twice", *v)
		}
		consumed.Add(1)
	}

	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.StealTop(); ok {
					record(v)
					continue
				}
				select {
				case <-done:
					// Drain anything left after the owner stopped.
					for {
						v, ok := d.StealTop()
						if !ok {
							return
						}
						record(v)
					}
				default:
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < items; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
		if rng.Intn(3) == 0 {
			if v, ok := d.PopBottom(); ok {
				record(v)
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		record(v)
	}
	close(done)
	wg.Wait()
	// Final drain by owner in case thieves raced the close.
	for {
		v, ok := d.StealTop()
		if !ok {
			break
		}
		record(v)
	}
	if got := consumed.Load(); got != items {
		t.Fatalf("consumed %d of %d items", got, items)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("item %d consumed %d times", i, seen[i].Load())
		}
	}
}

// TestPtrLastItemRace exercises the owner/thief CAS race on the final
// element: exactly one side must win each round.
func TestPtrLastItemRace(t *testing.T) {
	for round := 0; round < 2000; round++ {
		d := NewPtr[int](8)
		seven := 7
		d.PushBottom(&seven)
		var ownerGot, thiefGot atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, ok := d.PopBottom(); ok {
				ownerGot.Store(true)
			}
		}()
		go func() {
			defer wg.Done()
			if _, ok := d.StealTop(); ok {
				thiefGot.Store(true)
			}
		}()
		wg.Wait()
		if ownerGot.Load() == thiefGot.Load() {
			t.Fatalf("round %d: owner=%v thief=%v (exactly one must win)",
				round, ownerGot.Load(), thiefGot.Load())
		}
	}
}

// TestPtrPopBottomIfSingleThread pins the conditional pop's contract: it
// pops v only when v is the bottom item, and a stale slot — one a thief
// emptied but, as thieves never do, did not clear — is never delivered from
// an empty deque.
func TestPtrPopBottomIfSingleThread(t *testing.T) {
	d := NewPtr[int](8)
	a, b := 1, 2
	if d.PopBottomIf(&a) {
		t.Fatal("PopBottomIf on a fresh deque succeeded")
	}
	d.PushBottom(&a)
	d.PushBottom(&b)
	if d.PopBottomIf(&a) {
		t.Fatal("PopBottomIf popped an item that is not at the bottom")
	}
	if d.Len() != 2 {
		t.Fatalf("a refused PopBottomIf changed Len to %d", d.Len())
	}
	if !d.PopBottomIf(&b) || !d.PopBottomIf(&a) {
		t.Fatal("PopBottomIf refused the bottom item")
	}
	if d.PopBottomIf(&a) {
		t.Fatal("PopBottomIf delivered an item twice")
	}

	d.PushBottom(&a)
	if v, ok := d.StealTop(); !ok || v != &a {
		t.Fatalf("StealTop = %v,%v", v, ok)
	}
	// The slot below bottom still holds &a, and the deque is empty.
	if d.PopBottomIf(&a) {
		t.Fatal("PopBottomIf delivered a stolen item from its stale slot")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after a refused PopBottomIf on an empty deque", d.Len())
	}
	d.PushBottom(&b)
	if !d.PopBottomIf(&b) {
		t.Fatal("PopBottomIf refused the bottom item after a stale-slot refusal")
	}
}

// TestPtrPopBottomIfVsThieves runs the owner the way a creator-touch
// fork-join worker runs: push a few items, then take them back newest first
// with PopBottomIf, while thieves steal from the top. Every pushed pointer
// must be delivered exactly once, to the owner or to a thief. A PopBottomIf
// that trusted the stale slot a thief left behind would deliver that item a
// second time. Run under -race in CI.
func TestPtrPopBottomIfVsThieves(t *testing.T) {
	const (
		items   = 60000
		thieves = 4
	)
	d := NewPtr[int](8)
	vals := make([]int, items)
	seen := make(deliveries, items)
	stop := seen.stealFrom(t, d, thieves)

	rng := rand.New(rand.NewSource(7))
	for next := 0; next < items; {
		// Mostly shallow nests; an occasional deep one outgrows the ring.
		depth := 1 + rng.Intn(4)
		if rng.Intn(64) == 0 {
			depth = 20
		}
		if depth > items-next {
			depth = items - next
		}
		first := next
		for ; next < first+depth; next++ {
			vals[next] = next
			d.PushBottom(&vals[next])
		}
		for i := next - 1; i >= first; i-- {
			if d.PopBottomIf(&vals[i]) {
				seen.record(t, &vals[i])
			}
			// Otherwise a thief has item i, and with it every older item.
		}
		if n := d.Len(); n != 0 {
			t.Fatalf("%d items left after the owner unwound its nest", n)
		}
	}
	stop()
	seen.checkEachOnce(t)
}

// deliveries counts, per item, how often a deque handed it out.
type deliveries []atomic.Int32

func (seen deliveries) record(t *testing.T, v *int) {
	if seen[*v].Add(1) != 1 {
		t.Errorf("item %d delivered twice", *v)
	}
}

// stealFrom starts n thieves that take from the top of d and record what
// they get, until the returned stop is called; stop waits for them.
func (seen deliveries) stealFrom(t *testing.T, d *Ptr[int], n int) (stop func()) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for th := 0; th < n; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.StealTop(); ok {
					seen.record(t, v)
					continue
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

func (seen deliveries) checkEachOnce(t *testing.T) {
	t.Helper()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d delivered %d times", i, n)
		}
	}
}

// TestPtrPeekBottomVsThieves runs the owner the way a worker trims its deque:
// push a few items, then peek at the bottom and pop what was peeked until the
// deque looks empty, while thieves steal from the top. The pop must deliver
// exactly the peeked item or fail — a thief got there first — and never some
// other item; an empty deque must peek as nil even though the slot a thief
// emptied still holds its pointer. Every item is delivered exactly once. Run
// under -race in CI.
func TestPtrPeekBottomVsThieves(t *testing.T) {
	const (
		items   = 60000
		thieves = 4
	)
	d := NewPtr[int](8)
	if d.PeekBottom() != nil {
		t.Fatal("PeekBottom on a fresh deque is not nil")
	}
	a := -1
	d.PushBottom(&a)
	if d.PeekBottom() != &a || d.Len() != 1 {
		t.Fatalf("PeekBottom = %v with Len %d, want the one item left in place", d.PeekBottom(), d.Len())
	}
	if v, ok := d.StealTop(); !ok || v != &a {
		t.Fatalf("StealTop = %v,%v", v, ok)
	}
	if d.PeekBottom() != nil {
		t.Fatal("PeekBottom read a stolen item from its stale slot")
	}

	vals := make([]int, items)
	seen := make(deliveries, items)
	stop := seen.stealFrom(t, d, thieves)
	rng := rand.New(rand.NewSource(11))
	for next := 0; next < items; {
		depth := min(1+rng.Intn(6), items-next)
		for first := next; next < first+depth; next++ {
			vals[next] = next
			d.PushBottom(&vals[next])
		}
		for {
			peeked := d.PeekBottom()
			if peeked == nil {
				break
			}
			v, ok := d.PopBottom()
			if !ok {
				continue // a thief took the last item between the peek and the pop
			}
			if v != peeked {
				t.Fatalf("peeked item %d, popped item %d", *peeked, *v)
			}
			seen.record(t, v)
		}
		if n := d.Len(); n != 0 {
			t.Fatalf("%d items left after the owner trimmed to empty", n)
		}
	}
	stop()
	seen.checkEachOnce(t)
}

func TestPtrStealNSingleThread(t *testing.T) {
	d := NewPtr[int](2)
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	buf := make([]*int, 4)
	if n := d.StealN(buf); n != 4 {
		t.Fatalf("StealN = %d, want 4", n)
	}
	for i, v := range buf {
		if *v != i {
			t.Fatalf("buf[%d] = %d, want %d (oldest first)", i, *v, i)
		}
	}
	// A batch larger than the remainder returns what is there.
	big := make([]*int, 16)
	if n := d.StealN(big); n != 6 {
		t.Fatalf("StealN = %d, want 6", n)
	}
	for i := 0; i < 6; i++ {
		if *big[i] != 4+i {
			t.Fatalf("big[%d] = %d, want %d", i, *big[i], 4+i)
		}
	}
	if n := d.StealN(big); n != 0 {
		t.Fatalf("StealN on empty = %d, want 0", n)
	}
	if n := d.StealN(nil); n != 0 {
		t.Fatalf("StealN(nil) = %d, want 0", n)
	}
}

// TestPtrStealNVsOracle drives Ptr (with batched steals) and Locked with the
// same single-threaded operation sequence and demands identical results —
// the linearizability oracle for the bulk operation.
func TestPtrStealNVsOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pd := NewPtr[int](4)
		var or Locked[int]
		store := make([]int, 400)
		for i := range store {
			store[i] = i
		}
		next := 0
		buf := make([]*int, 8)
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0:
				if next == len(store) {
					continue
				}
				pd.PushBottom(&store[next])
				or.PushBottom(next)
				next++
			case 1:
				v1, ok1 := pd.PopBottom()
				v2, ok2 := or.PopBottom()
				if ok1 != ok2 || (ok1 && *v1 != v2) {
					return false
				}
			case 2:
				v1, ok1 := pd.StealTop()
				v2, ok2 := or.StealTop()
				if ok1 != ok2 || (ok1 && *v1 != v2) {
					return false
				}
			case 3:
				k := 1 + rng.Intn(len(buf))
				n := pd.StealN(buf[:k])
				for i := 0; i < n; i++ {
					v, ok := or.StealTop()
					if !ok || v != *buf[i] {
						return false
					}
				}
				// Single-threaded: a short batch must mean the deque is dry.
				if n < k && or.Len() != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPtrStealNMultiThiefStress is the bulk-steal analogue of
// TestPtrMultiThiefStress: one owner interleaves pushes and pops while many
// thieves drain batches of varying size, from a tiny initial buffer so
// batches race grow constantly. Every item must be consumed exactly once.
// Run under -race in CI.
func TestPtrStealNMultiThiefStress(t *testing.T) {
	const (
		items   = 100000
		thieves = 8
	)
	d := NewPtr[int](8)
	vals := make([]int, items)
	seen := make([]atomic.Int32, items)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})

	record := func(v *int) {
		if seen[*v].Add(1) != 1 {
			t.Errorf("item %d consumed twice", *v)
		}
		consumed.Add(1)
	}

	for th := 0; th < thieves; th++ {
		th := th
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]*int, 1+th%7) // thieves use different batch sizes
			for {
				if n := d.StealN(buf); n > 0 {
					for i := 0; i < n; i++ {
						record(buf[i])
						buf[i] = nil
					}
					continue
				}
				select {
				case <-done:
					// Drain anything left after the owner stopped.
					for {
						n := d.StealN(buf)
						if n == 0 {
							return
						}
						for i := 0; i < n; i++ {
							record(buf[i])
							buf[i] = nil
						}
					}
				default:
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < items; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
		if rng.Intn(3) == 0 {
			if v, ok := d.PopBottom(); ok {
				record(v)
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		record(v)
	}
	close(done)
	wg.Wait()
	// Final drain by owner in case thieves raced the close.
	for {
		v, ok := d.StealTop()
		if !ok {
			break
		}
		record(v)
	}
	if got := consumed.Load(); got != items {
		t.Fatalf("consumed %d of %d items", got, items)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("item %d consumed %d times", i, seen[i].Load())
		}
	}
}

func BenchmarkPtrPushPop(b *testing.B) {
	d := NewPtr[int](1024)
	v := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushBottom(&v)
		d.PopBottom()
	}
}

// PeekBottom returns the bottom item without removing it.
func (d *Seq[T]) PeekBottom() (v T, ok bool) {
	if len(d.items) == 0 {
		return v, false
	}
	return d.items[len(d.items)-1], true
}

// Len returns the number of queued items.
func (d *Seq[T]) Len() int { return len(d.items) }

// Snapshot returns a copy of the contents, top first. For tests and tracing.
func (d *Seq[T]) Snapshot() []T {
	out := make([]T, len(d.items))
	copy(out, d.items)
	return out
}

// PopBottom removes and returns the owner-end item.
func (d *Locked[T]) PopBottom() (v T, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return v, false
	}
	v = d.items[len(d.items)-1]
	var zero T
	d.items[len(d.items)-1] = zero
	d.items = d.items[:len(d.items)-1]
	d.size.Store(int64(len(d.items)))
	return v, true
}
