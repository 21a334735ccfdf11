package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the goroutines ForEach calls have started and not yet seen
// return, over the whole process: the one budget every fan-out draws on.
var helpers atomic.Int32

// borrow takes one helper from the budget of GOMAXPROCS − 1, read now (a
// process may change GOMAXPROCS between calls), and reports whether there was
// one to take.
func borrow() bool {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		h := helpers.Load()
		if h >= limit {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// ForEach calls fn(0) … fn(n-1), each once, and returns when all have
// returned. It is the one fan-out of the analysis pipeline: trials, matrix
// cells and jobs are independent units that write their results by index, so
// any of them may run on another goroutine. The caller always works; before
// each index it takes it tries to borrow one helper for the indices after it,
// so the goroutines at work in all ForEach calls together, nested ones
// included, never outnumber the Ps — a call that finds the budget spent, or
// one P, or n ≤ 1, runs its indices in order on the caller and starts nothing.
// Every helper is back in the budget when ForEach returns.
//
// Indices are handed out in increasing order and none is handed out after an
// fn has failed, so every index below a failed one has run: the error
// returned is the failed call of lowest index, whichever finished first.
func ForEach(n int, fn func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errAt  = n
		err    error
	)
	var work func()
	work = func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if i+1 < n && borrow() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer helpers.Add(-1)
					work()
				}()
			}
			if e := fn(i); e != nil {
				failed.Store(true)
				mu.Lock()
				if i < errAt {
					errAt, err = i, e
				}
				mu.Unlock()
			}
		}
	}
	work()
	wg.Wait()
	return err
}
