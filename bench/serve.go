package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rt "futurelocality/internal/runtime"
	"futurelocality/internal/shard"
	"futurelocality/internal/stats"
	"futurelocality/internal/telemetry"
)

// The serve workloads offer small mixed jobs to a job server in three
// phases: a closed loop of W clients, then open-loop Poisson arrivals at a
// low and at a high fixed rate. At the low rate every arrival meets parked
// workers, so latency is submit + wake-up + the job's own run; at the high
// rate workers stay awake and the injection queue sets the tail.
const (
	rateLow      = 2000.0 // jobs/s, about 10 % of closed-loop capacity on the dev box
	rateHigh     = 6000.0 // jobs/s, about 30 %
	spanSampling = 10     // the traced run keeps the spans of one job in ten

	// serveCap is the in-flight cap. Neither rate needs more than a few
	// dozen slots; the cap is sized so that a host stall of half a second
	// at the high rate queues its arrivals and does not shed them. A cap of
	// 256 shed jobs in 2 of 20 runs on the dev box, each time in one stall.
	serveCap = 4096

	// Set-up serves setupRounds bursts of setupBurst jobs.
	setupBurst  = 256
	setupRounds = 8

	shareClosed = 0.20 // of the run's measured seconds
	shareLow    = 0.35
	shareHigh   = 0.45
)

// jobKind is one request body with its reference result. The closures are
// built once, so the submit path measured is the runtime's and not the
// benchmark's allocator.
type jobKind struct {
	name string
	fn   func(*rt.W) int
	want int
}

// makeKinds builds the three request bodies. They are the same for every
// seed, the randstruct shape included: the seed decides when jobs arrive and
// of which kind, and a job of a kind always costs the same.
func makeKinds() []jobKind {
	const pipeItems = 512
	s := pickShapes(newRNG(1, 3), 1, 5, 63)[0]
	return []jobKind{
		{"fib", func(w *rt.W) int { return fib(w, nil, 20, 12) }, fibSeq(20, 12)},
		{"randstruct", func(w *rt.W) int { return randstruct(w, nil, s.seed, s.depth) }, s.want},
		{"pipeline", func(w *rt.W) int { return pipeline(w, pipeItems) }, pipelineWant(pipeItems)},
	}
}

// jobHandle is what the handler of one job needs from either server.
type jobHandle interface {
	WaitErr() (int, error)
	Latency() time.Duration
}

// server is the system under test: one Runtime, or a shard.Pool when pool
// is set. The two are driven by the same code so that the router is the
// only difference between serve-runtime and serve-pool.
type server struct {
	rt    *rt.Runtime
	pool  *shard.Pool
	kinds []jobKind
}

func (s *server) submit(fn func(*rt.W) int) (jobHandle, error) {
	if s.pool != nil {
		j, err := shard.Submit(s.pool, fn)
		return &j, err
	}
	j, err := rt.Submit(s.rt, fn)
	return &j, err
}

func (s *server) close() {
	if s.pool != nil {
		s.pool.Shutdown()
		return
	}
	s.rt.Shutdown()
}

// counters is one reading of the server's own always-on counters.
type counters struct {
	submitted, completed, shed   int64
	steals, intra, cross         int64
	poolOffered, poolShed, poolF int64
	perShard                     []int64 // jobs submitted, by shard
	queueWait, latency           stats.HistSnapshot
}

func (s *server) counters() counters {
	var c counters
	var snaps []telemetry.Snapshot
	if s.pool != nil {
		snaps = s.pool.TelemetrySnapshots()
		c.poolOffered, c.poolShed, c.poolF = s.pool.Offered(), s.pool.Shed(), s.pool.Forwarded()
		c.queueWait, c.latency = s.pool.QueueWaitHist(), s.pool.LatencyHist()
	} else {
		snaps = append(snaps, s.rt.TelemetrySnapshot())
		c.queueWait, c.latency = s.rt.QueueWaitHist(), s.rt.LatencyHist()
	}
	for _, sn := range snaps {
		sub := sn.Total(telemetry.CJobsSubmitted)
		c.perShard = append(c.perShard, sub)
		c.submitted += sub
		c.completed += sn.Total(telemetry.CJobsCompleted)
		c.shed += sn.Total(telemetry.CJobsShed)
		c.steals += sn.Steals()
		c.intra += sn.Total(telemetry.CStealsIntraDomain)
		c.cross += sn.Total(telemetry.CStealsCrossDomain)
	}
	return c
}

func (s *server) inFlight() int {
	if s.pool != nil {
		return s.pool.InFlight()
	}
	return s.rt.InFlight()
}

// conserve checks the job and steal conservation laws over one phase:
// everything offered was either completed or shed, and every steal was
// attributed to exactly one side of a cache-domain boundary.
func (s *server) conserve(r *result, phase string, a, b counters, offered, done, shed int64) {
	r.check(offered == done+shed, "%s: offered %d != done %d + shed %d", phase, offered, done, shed)
	r.check(b.completed-a.completed == done, "%s: runtime completed %d, benchmark saw %d", phase, b.completed-a.completed, done)
	r.check(b.intra+b.cross == b.steals, "%s: intra %d + cross %d != steals %d", phase, b.intra, b.cross, b.steals)
	if s.pool == nil {
		r.check(b.submitted-a.submitted == done && b.shed-a.shed == shed,
			"%s: runtime submitted %d shed %d, benchmark saw %d and %d", phase, b.submitted-a.submitted, b.shed-a.shed, done, shed)
		return
	}
	// A pool counts a job as shed only when every shard refused it; the
	// shards' own shed counters also count refusals that were forwarded.
	r.check(b.poolOffered-a.poolOffered == offered, "%s: pool offered %d, benchmark offered %d", phase, b.poolOffered-a.poolOffered, offered)
	r.check(b.poolOffered-a.poolOffered == (b.submitted-a.submitted)+(b.poolShed-a.poolShed),
		"%s: pool offered %d != shard-submitted %d + pool-shed %d", phase, b.poolOffered-a.poolOffered, b.submitted-a.submitted, b.poolShed-a.poolShed)
	r.check(b.poolShed-a.poolShed == shed, "%s: pool shed %d, benchmark saw %d", phase, b.poolShed-a.poolShed, shed)
}

func newServer(e *env, pooled bool) (instance, error) {
	s := &server{kinds: makeKinds()}
	if pooled {
		s.pool = shard.NewPool(shard.WithShards(2), shard.WithWorkers(e.workers),
			shard.WithMaxInFlight(serveCap), shard.WithRuntimeOptions(rt.WithSeed(e.seed)))
	} else {
		s.rt = rt.New(rt.WithWorkers(e.workers), rt.WithSeed(e.seed), rt.WithMaxInFlight(serveCap))
	}
	// A few bursts of jobs belong to set-up: they grow the registry, the
	// root freelists and the deques to their working size, which is the
	// state a server that has been up for a second is in.
	handles := make([]jobHandle, 0, setupBurst)
	for round := 0; round < setupRounds; round++ {
		handles = handles[:0]
		for i := 0; i < setupBurst; i++ {
			h, err := s.submit(s.kinds[i%len(s.kinds)].fn)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("set-up job %d: %w", i, err)
			}
			handles = append(handles, h)
		}
		for i, h := range handles {
			k := &s.kinds[i%len(s.kinds)]
			if got, err := h.WaitErr(); err != nil || got != k.want {
				s.close()
				return nil, fmt.Errorf("set-up %s job: got %d, want %d, error %v", k.name, got, k.want, err)
			}
		}
	}
	return s, nil
}

func setupServeRuntime(e *env) (instance, error) { return newServer(e, false) }
func setupServePool(e *env) (instance, error)    { return newServer(e, true) }

// arrival is one scheduled job of an open-loop phase.
type arrival struct {
	at   time.Duration // when it is due, from the start of the phase
	kind int
}

// schedule draws Poisson arrivals at rate over span, each with a job kind,
// from the seed alone. Both serve workloads ask for the same stream, so they
// are offered the same jobs at the same instants.
func schedule(seed int64, rate float64, span time.Duration, kinds int) []arrival {
	r := newRNG(seed, uint64(rate))
	var out []arrival
	for t := 0.0; ; {
		t += -math.Log(r.float()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, arrival{at: at, kind: int(r.next() % uint64(kinds))})
	}
}

// pace returns at or after due, never before. It sleeps to within a
// millisecond and then yields in a loop: a bare time.Sleep wakes about half
// a millisecond late on the dev box, which would be charged to every job's
// latency, since latency is timed from due.
func pace(due time.Time) time.Time {
	for {
		now := time.Now()
		switch left := due.Sub(now); {
		case left <= 0:
			return now
		case left > time.Millisecond:
			time.Sleep(left - time.Millisecond)
		default:
			runtime.Gosched()
		}
	}
}

// jobRecord is the benchmark's own timeline of one open-loop job.
type jobRecord struct {
	due, call0, call1, ret time.Time
	own                    time.Duration // the runtime's submit-to-done capture
	kind                   int
	ok                     bool
	err                    error
}

// openLoop offers the scheduled arrivals at their due times, one handler
// goroutine per job as an HTTP server would have, and returns the records
// of the jobs due at or after warm. begin is called when the first of those
// is due and end when the last has been handled.
func (s *server) openLoop(arr []arrival, warm time.Duration, begin, end func()) (recs []jobRecord, origin time.Time, inflightMax int) {
	first := 0
	for first < len(arr) && arr[first].at < warm {
		first++
	}
	recs = make([]jobRecord, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		if i == first {
			wg.Wait() // the warm-up's jobs are done before accounting starts
			begin()
		}
		rec := &recs[i]
		rec.kind = a.kind
		k := &s.kinds[a.kind]
		rec.due = start.Add(a.at)
		rec.call0 = pace(rec.due)
		h, err := s.submit(k.fn)
		rec.call1 = time.Now()
		if err != nil {
			rec.err, rec.ret = err, rec.call1
			continue
		}
		if i >= first {
			inflightMax = max(inflightMax, s.inFlight())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := h.WaitErr()
			rec.ret = time.Now()
			rec.own = h.Latency()
			rec.err = err
			rec.ok = err == nil && got == k.want
		}()
	}
	wg.Wait()
	if first < len(arr) {
		end()
	}
	return recs[first:], start.Add(warm), inflightMax
}

// openStats is what one open-loop phase measured.
type openStats struct {
	p50, p85, p99 float64 // median over windows of the window's percentile, ms
	lateP99       float64 // how late the generator ran, ms
	callP50       float64 // the Submit call, ns
	callP99       float64
	kindP50       []float64 // due-to-done p50 by kind, ms
	offered       int64
	done, shed    int64
	inflightMax   int
	queueWait     stats.HistSnapshot
	ownLatency    stats.HistSnapshot
	windows       int
}

// runOpen runs one fixed-rate phase with its warm-up and checks every job.
func (s *server) runOpen(e *env, r *result, rate float64, dur time.Duration, phase string) openStats {
	warm := e.warmup(dur)
	arr := schedule(e.seed, rate, warm+dur, len(s.kinds))
	var a counters
	recs, origin, inflightMax := s.openLoop(arr, warm,
		func() { a = s.counters(); r.acct.begin(false) },
		func() { r.acct.end() })
	b := s.counters()
	if len(recs) == 0 {
		r.check(false, "%s: no arrival fell in the measured phase", phase)
		return openStats{kindP50: make([]float64, len(s.kinds))}
	}

	st := openStats{offered: int64(len(recs)), inflightMax: inflightMax, windows: windowsFor(int64(dur))}
	st.queueWait, st.ownLatency = b.queueWait.Sub(a.queueWait), b.latency.Sub(a.latency)
	lat := make([]sample, 0, len(recs))
	late := make([]float64, 0, len(recs))
	call := make([]float64, 0, len(recs))
	byKind := make([][]float64, len(s.kinds))
	for i := range recs {
		rec := &recs[i]
		r.attempted++
		switch {
		case errors.Is(rec.err, rt.ErrSaturated):
			st.shed++
			r.fail("%s: job shed at a fixed rate", phase)
		case rec.err != nil:
			r.fail("%s: %s job: %v", phase, s.kinds[rec.kind].name, rec.err)
		case !rec.ok:
			st.done++
			r.fail("%s: %s job returned a wrong result", phase, s.kinds[rec.kind].name)
		default:
			st.done++
		}
		ms := float64(rec.ret.Sub(rec.due)) / 1e6
		if !rec.ok {
			ms = float64(dur) / 1e6 // a refused or failed job misses every latency limit
		}
		lat = append(lat, sample{at: int64(rec.due.Sub(origin)), v: ms})
		late = append(late, float64(rec.call0.Sub(rec.due))/1e6)
		call = append(call, float64(rec.call1.Sub(rec.call0)))
		byKind[rec.kind] = append(byKind[rec.kind], ms)
		if e.tr != nil && i%spanSampling == 0 && rec.err == nil {
			s.traceJob(e.tr, rec, phase, i)
		}
	}
	st.p50 = windowedPercentile(lat, int64(dur), st.windows, 50)
	st.p85 = windowedPercentile(lat, int64(dur), st.windows, 85)
	st.p99 = windowedPercentile(lat, int64(dur), st.windows, 99)
	st.lateP99 = percentile(late, 99)
	st.callP50, st.callP99 = percentile(call, 50), percentile(call, 99)
	for _, ks := range byKind {
		st.kindP50 = append(st.kindP50, percentile(ks, 50))
	}
	s.conserve(r, phase, a, b, st.offered, st.done, st.shed)
	r.ops += st.done
	return st
}

// traceJob records the stages of one job: the generator's lateness, the
// Submit call, the runtime's own submit-to-done time, and the hand-off from
// done to the handler's return.
func (s *server) traceJob(tr *tracer, rec *jobRecord, phase string, i int) {
	op, lane := int64(i), i/spanSampling%16
	root := tr.add(span{name: phase + " " + s.kinds[rec.kind].name, layer: "bench", start: tr.at(rec.due), end: tr.at(rec.ret), parent: -1, op: op, lane: lane})
	done := rec.call0.Add(rec.own)
	if done.After(rec.ret) {
		done = rec.ret
	}
	tr.add(span{name: "due to submit call", layer: "loadgen", start: tr.at(rec.due), end: tr.at(rec.call0), parent: root, op: op, lane: lane})
	tr.add(span{name: "Submit", layer: "job", start: tr.at(rec.call0), end: tr.at(rec.call1), parent: root, op: op, lane: lane})
	tr.add(span{name: "submitted to done", layer: "runtime", start: tr.at(rec.call1), end: tr.at(done), parent: root, op: op, lane: lane})
	tr.add(span{name: "done to handler return", layer: "hand-off", start: tr.at(done), end: tr.at(rec.ret), parent: root, op: op, lane: lane})
}

// closedLoop runs W clients that each submit, wait and check in a loop for
// dur, after an uncounted warm-up, and returns the jobs completed.
func (s *server) closedLoop(e *env, r *result, dur time.Duration) (done int64, wall time.Duration) {
	var a counters
	var shed, wrong atomic.Int64
	for _, phase := range []struct {
		dur     time.Duration
		counted bool
	}{{e.warmup(dur), false}, {dur, true}} {
		var n atomic.Int64
		if phase.counted {
			a = s.counters()
			r.acct.begin(true)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < e.workers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				draw := newRNG(e.seed, uint64(100+c))
				for time.Since(start) < phase.dur {
					k := &s.kinds[draw.next()%uint64(len(s.kinds))]
					h, err := s.submit(k.fn)
					if err != nil {
						shed.Add(1)
						continue
					}
					if got, err := h.WaitErr(); err != nil || got != k.want {
						wrong.Add(1)
					}
					n.Add(1)
				}
			}()
		}
		wg.Wait()
		if phase.counted {
			wall = time.Since(start)
			r.acct.end()
			done = n.Load()
		}
	}
	b := s.counters()
	r.attempted += done + shed.Load()
	if shed.Load() > 0 {
		r.fail("closed loop: %d submits refused", shed.Load())
	}
	if wrong.Load() > 0 {
		r.fail("closed loop: %d jobs failed or returned a wrong result", wrong.Load())
	}
	s.conserve(r, "closed loop", a, b, done+shed.Load(), done, shed.Load())
	r.ops += done
	r.cpuOps += done
	return done, wall
}

func (s *server) measure(e *env, r *result) {
	steals0 := s.counters().steals
	done, wall := s.closedLoop(e, r, e.dur(shareClosed))
	lo := s.runOpen(e, r, rateLow, e.dur(shareLow), "r2k")
	hi := s.runOpen(e, r, rateHigh, e.dur(shareHigh), "r6k")
	end := s.counters()

	r.e2e["ops_per_s"] = float64(done) / wall.Seconds()
	r.e2e["req_ms_p50"] = lo.p50
	r.e2e["req_ms_p85"] = hi.p85
	r.notes = append(r.notes,
		fmt.Sprintf("closed loop: %d clients, %d jobs in %.2f s", e.workers, done, wall.Seconds()),
		fmt.Sprintf("r2k: %d jobs in %d windows; r6k: %d jobs in %d windows; req_ms_p50 is the median over windows of the p50 at 2000/s, req_ms_p85 of the p85 at 6000/s", lo.offered, lo.windows, hi.offered, hi.windows))

	l := r.layer
	l["loadgen.late_ms_p99_r2k"], l["loadgen.late_ms_p99_r6k"] = lo.lateP99, hi.lateP99
	l["job.submit_call_ns_p50"], l["job.submit_call_ns_p99"] = hi.callP50, hi.callP99
	l["job.queue_wait_ms_p50"] = hi.queueWait.Quantile(0.50) / 1e6
	l["job.queue_wait_ms_p99"] = hi.queueWait.Quantile(0.99) / 1e6
	l["job.own_ms_p99_r6k"] = hi.ownLatency.Quantile(0.99) / 1e6
	l["job.ms_p99_r2k"], l["job.ms_p50_r6k"], l["job.ms_p99_r6k"] = lo.p99, hi.p50, hi.p99
	for i, k := range s.kinds {
		l["job.kind_"+k.name+"_ms_p50"] = lo.kindP50[i]
	}
	l["job.shed_frac"] = float64(lo.shed+hi.shed) / float64(lo.offered+hi.offered)
	l["job.inflight_max"] = float64(max(lo.inflightMax, hi.inflightMax))
	r.degenerate = e.workers > 1 && end.steals == steals0
	l["runtime.degenerate"] = boolMetric(r.degenerate)
	if s.pool != nil {
		l["shard.forwarded_frac"] = float64(end.poolF) / float64(end.poolOffered)
		l["shard.shed_frac"] = float64(end.poolShed) / float64(end.poolOffered)
		l["shard.imbalance"] = imbalance(end.perShard)
	}
}

// imbalance is the busiest shard's share of submitted jobs over the mean
// share: 1 is a perfect split.
func imbalance(perShard []int64) float64 {
	var total, most int64
	for _, n := range perShard {
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 1
	}
	return float64(most) * float64(len(perShard)) / float64(total)
}
