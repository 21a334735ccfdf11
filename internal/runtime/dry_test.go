package runtime

import (
	"testing"
	"time"

	"futurelocality/internal/telemetry"
)

// TestDryWorkerDecision is the dry path's policy as a table: what a worker
// with an empty deque does next, given how long it has been dry, how long
// ago it last swept its peers, what the injection queue holds and whether a
// P is to spare.
func TestDryWorkerDecision(t *testing.T) {
	const p, lim = stealPatience, pollLimit
	for _, c := range []struct {
		name               string
		dryFor, sinceSweep time.Duration
		injected           int
		spareP             bool
		want               dryAction
	}{
		{"a root is waiting", 0, noSweep, 1, true, dryInject},
		{"a root is waiting and the patience has run out", p, noSweep, 2, true, dryInject},
		{"a root is waiting and no P is to spare", 0, noSweep, 1, false, dryInject},
		{"a root is waiting at the end of the window", lim, p, 1, true, dryInject},

		{"just gone dry", 0, noSweep, 0, true, dryPoll},
		{"inside the patience interval", p - 1, noSweep, 0, true, dryPoll},
		{"patience over: first sweep", p, noSweep, 0, true, drySweep},
		{"just swept", p + 1, 1, 0, true, dryPoll},
		{"inside the next interval", 2*p - 1, p - 1, 0, true, dryPoll},
		{"an interval after the last sweep", 2 * p, p, 0, true, drySweep},
		{"late in the window, swept recently", lim - 1, p - 1, 0, true, dryPoll},

		{"window over, swept recently: sleep", lim, p - 1, 0, true, dryPark},
		{"window over, last sweep an interval ago: sweep before sleeping", lim, p, 0, true, drySweep},
		{"the P came back after the window, nothing swept yet", 100 * lim, noSweep, 0, true, drySweep},
		{"the P came back after the window, swept since", 100 * lim, 1, 0, true, dryPark},

		{"no spare P: sweep at once", 0, noSweep, 0, false, drySweep},
		{"no spare P, swept: sleep", 0, 0, 0, false, dryPark},
		{"the spare P went away mid-window, swept before", 10 * p, 2 * p, 0, false, dryPark},
		{"the spare P went away before the first sweep", p - 1, noSweep, 0, false, drySweep},
	} {
		if got := dryDecision(c.dryFor, c.sinceSweep, c.injected, c.spareP); got != c.want {
			t.Errorf("%s: dryDecision(%v, %v, %d, %v) = %d, want %d",
				c.name, c.dryFor, c.sinceSweep, c.injected, c.spareP, got, c.want)
		}
	}
}

// TestStealPatience drives one dry worker by hand, the test supplying the
// clock: while its peer holds a task, a root that lands on the injection
// queue inside the patience interval is what the worker takes, and the peer's
// task stays where it is; with no root the worker robs the peer, but only
// once the interval is over, and then once per interval.
func TestStealPatience(t *testing.T) {
	rt := bareRuntime(2)
	peer, w := rt.workers[0], rt.workers[1]
	attempts := func() int64 { return w.tele.Load(telemetry.CStealAttempts) }
	step := func(ep *dryEpisode, dryFor time.Duration, wantAct dryAction, want *task, wantStolen bool) {
		t.Helper()
		got, fl, act := w.dryStep(ep, dryFor)
		stolen := got != nil && fl == execStolen
		if act != wantAct || got != want || stolen != wantStolen {
			t.Fatalf("dry for %v: action %d task %p stolen %v, want action %d task %p stolen %v",
				dryFor, act, got, stolen, wantAct, want, wantStolen)
		}
	}

	held := SpawnWith(rt, peer, ParentFirst, leafIntFn)
	ep := dryEpisode{spareP: true}
	step(&ep, 0, dryPoll, nil, false)
	step(&ep, stealPatience/2, dryPoll, nil, false)
	root := SpawnWith(rt, nil, ParentFirst, sevenFn)
	step(&ep, stealPatience-1, dryInject, &root.task, false)
	if n := peer.dq.Len(); n != 1 || attempts() != 0 {
		t.Fatalf("the worker took the root, yet the peer's deque holds %d tasks after %d steal probes; want 1 and 0", n, attempts())
	}
	if !w.execCtx(&root.task, 0) || root.Touch(nil) != 7 {
		t.Fatal("the root did not run")
	}

	ep = dryEpisode{spareP: true}
	step(&ep, 0, dryPoll, nil, false)
	step(&ep, stealPatience-1, dryPoll, nil, false)
	if attempts() != 0 {
		t.Fatalf("%d steal probes inside the patience interval", attempts())
	}
	step(&ep, stealPatience, drySweep, &held.task, true)
	if !w.execCtx(&held.task, execStolen) || held.Touch(nil) != 1 {
		t.Fatal("the stolen task did not run")
	}

	// The sweeps of one episode are a patience interval apart, and the last
	// one comes right before the decision to sleep.
	ep = dryEpisode{spareP: true}
	step(&ep, stealPatience, drySweep, nil, false)
	again := SpawnWith(rt, peer, ParentFirst, leafIntFn)
	step(&ep, stealPatience+1, dryPoll, nil, false)
	step(&ep, 2*stealPatience-1, dryPoll, nil, false)
	if peer.dq.Len() != 1 {
		t.Fatal("the peer's task was taken inside the interval after a sweep")
	}
	step(&ep, 2*stealPatience, drySweep, &again.task, true)
	w.execCtx(&again.task, execStolen)
	step(&ep, pollLimit, drySweep, nil, false)
	step(&ep, pollLimit, dryPark, nil, false)

	// Not admitted to the poll phase: the sweep comes at once, then sleep.
	last := SpawnWith(rt, peer, ParentFirst, leafIntFn)
	ep = dryEpisode{}
	step(&ep, 0, drySweep, &last.task, true)
	w.execCtx(&last.task, execStolen)
	ep = dryEpisode{}
	step(&ep, 0, drySweep, nil, false)
	step(&ep, 0, dryPark, nil, false)
}

// TestPollAdmission pins the admission rule: a yield shorter than the
// scheduler's time slice leaves the worker admitted; one that long or longer
// ends the episode and keeps the worker from polling for crowdedBackoff
// times what the yield took.
func TestPollAdmission(t *testing.T) {
	rt := bareRuntime(1)
	w := rt.workers[0]
	at := rt.born.Add(time.Second)
	if !w.mayPoll(rt.born) || !w.mayPoll(at) {
		t.Fatal("a fresh worker is not admitted to the poll phase")
	}
	if !w.sawYield(at, crowdedYield-1) || !w.mayPoll(at) {
		t.Fatal("a yield shorter than a time slice closed the poll phase")
	}
	const took = 3 * crowdedYield
	if w.sawYield(at, took) {
		t.Fatal("a yield of three time slices left the P looking spare")
	}
	if w.mayPoll(at) || w.mayPoll(at.Add(crowdedBackoff*took-1)) {
		t.Fatal("the worker may poll again before the backoff is over")
	}
	if !w.mayPoll(at.Add(crowdedBackoff * took)) {
		t.Fatal("the worker may not poll once the backoff is over")
	}
	// Not admitted, it goes the old way: one sweep, then park.
	ep := dryEpisode{spareP: w.mayPoll(at)}
	if _, _, act := w.dryStep(&ep, 0); act != drySweep {
		t.Fatalf("first step of a worker that is not admitted = %d, want a sweep", act)
	}
	if _, _, act := w.dryStep(&ep, 0); act != dryPark {
		t.Fatalf("second step of a worker that is not admitted = %d, want park", act)
	}
}

// TestPollFindsOncePerEpisode: a dry episode ends asleep (CParks) or with
// work found by polling (CPollFinds), and the second is counted per episode,
// not per poll. One worker serves one client's jobs one after the other, so
// there are at most as many episodes as jobs, whereas one episode can make
// hundreds of polls.
func TestPollFindsOncePerEpisode(t *testing.T) {
	const jobs = 300
	rt := newRT(t, 1)
	for i := 0; i < jobs; i++ {
		if got := Run(rt, sevenFn); got != 7 {
			t.Fatalf("Run = %d", got)
		}
	}
	snap := rt.TelemetrySnapshot()
	finds, parks := snap.Total(telemetry.CPollFinds), snap.Total(telemetry.CParks)
	if finds > jobs {
		t.Fatalf("%d poll finds over %d jobs: counted per poll, not per episode", finds, jobs)
	}
	// A job that is already waiting when the worker goes dry is taken at the
	// episode's first look and counted neither way, so the two need not add up
	// to the jobs; but not every job can have been that early.
	if finds+parks == 0 {
		t.Fatalf("no dry episode ended over %d jobs served one at a time", jobs)
	}
	t.Logf("%d jobs: %d episodes ended polling, %d asleep", jobs, finds, parks)
}
