package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the rest of the test at GOMAXPROCS = n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// budgetReturned fails the test unless every borrowed helper is back.
func budgetReturned(t *testing.T) {
	t.Helper()
	if h := helpers.Load(); h != 0 {
		t.Errorf("%d helpers still out of the budget after ForEach returned", h)
	}
}

// TestForEachNestedStaysWithinGOMAXPROCS nests three levels of ForEach and
// counts the innermost bodies running at once: never more than GOMAXPROCS,
// every body exactly once, and the whole budget back afterwards.
func TestForEachNestedStaysWithinGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprint(procs), func(t *testing.T) {
			withProcs(t, procs)
			var running, high atomic.Int32
			var ran [5][4][6]atomic.Int32
			err := ForEach(len(ran), func(i int) error {
				return ForEach(len(ran[i]), func(j int) error {
					return ForEach(len(ran[i][j]), func(k int) error {
						now := running.Add(1)
						for h := high.Load(); now > h && !high.CompareAndSwap(h, now); h = high.Load() {
						}
						ran[i][j][k].Add(1)
						runtime.Gosched() // let the others in while this one counts as running
						running.Add(-1)
						return nil
					})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				for j := range ran[i] {
					for k := range ran[i][j] {
						if n := ran[i][j][k].Load(); n != 1 {
							t.Errorf("body (%d,%d,%d) ran %d times", i, j, k, n)
						}
					}
				}
			}
			if h := high.Load(); int(h) > procs {
				t.Errorf("%d bodies ran at once at GOMAXPROCS=%d", h, procs)
			}
			budgetReturned(t)
		})
	}
}

// TestForEachUsesEveryP: at GOMAXPROCS = 4 four bodies that each wait for
// the other three all get a goroutine — the caller and three helpers.
func TestForEachUsesEveryP(t *testing.T) {
	const procs = 4
	withProcs(t, procs)
	var arrived sync.WaitGroup
	arrived.Add(procs)
	err := ForEach(procs, func(int) error {
		arrived.Done()
		all := make(chan struct{})
		go func() { arrived.Wait(); close(all) }()
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other bodies never started: ForEach did not fan out")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	budgetReturned(t)
}

// TestForEachLowestIndexErrorWins makes index 5 fail first and index 3 fail
// only once it has: the error returned is index 3's. A ForEach that reports
// errors in arrival order returns index 5's.
func TestForEachLowestIndexErrorWins(t *testing.T) {
	withProcs(t, 4)
	for round := 0; round < 50; round++ {
		fiveFailed := make(chan struct{})
		err := ForEach(64, func(i int) error {
			switch i {
			case 3:
				<-fiveFailed
				// Not needed to pass: it gives index 5's error time to be
				// entered first, which is what an arrival-order reduction
				// would then return.
				time.Sleep(time.Millisecond)
				return errors.New("index 3")
			case 5:
				close(fiveFailed)
				return errors.New("index 5")
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Fatalf("round %d: ForEach returned %v, want index 3's error", round, err)
		}
		budgetReturned(t)
	}
}

// TestForEachOneP: with one P, or one index, there is no goroutine to start;
// the indices run in order on the caller and stop at the first failure.
func TestForEachOneP(t *testing.T) {
	withProcs(t, 1)
	before := runtime.NumGoroutine()
	var order []int
	err := ForEach(6, func(i int) error {
		order = append(order, i)
		if runtime.NumGoroutine() != before {
			t.Errorf("index %d: a goroutine was started at GOMAXPROCS=1", i)
		}
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("ran %v, returned %v; want [0 1 2 3] and the error", order, err)
	}
	if err := ForEach(0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatalf("ForEach(0) = %v", err)
	}
}
