// Jobserver: the runtime as a multi-tenant service — an HTTP-style request
// loop over a sharded pool, fully instrumented. A front-end loop accepts a
// stream of simulated requests and submits each as a job on a Pool of
// domain-aligned runtimes behind the job router (never blocking the accept
// loop, exactly like an HTTP handler must not block the listener);
// per-request handlers wait for their own job, check its result, and read
// its latency. WithPoolMaxInFlight gives the server admission control: the
// router places each request on a shard, forwards the whole job to the
// least-loaded shard when the placed one is saturated, and only sheds with
// a "503" when every shard refuses — the drain summary reports ok,
// forwarded, and shed separately.
//
// The observability layer is on throughout. With -listen the server exposes
//
//	/metrics      Prometheus text exposition merged across shards, every
//	              per-shard sample carrying a shard label, plus the router's
//	              pool_jobs_total{outcome=offered|forwarded|shed} counters
//	/debug/flight each shard's flight window reconstructed into the full
//	              predicted-vs-measured deviation report — no StartProfile
//	              needed, the rings are always recording
//	/debug/vars   the standard expvar page: the pool map (router outcomes at
//	              the top, each shard's full map under "shard") under the
//	              "futurelocality" key
//
// SIGINT drains gracefully: the accept loop stops, every in-flight job is
// flushed shard by shard, and the final metrics snapshot is printed before
// exit. Run without flags it serves a fixed batch and exits — the CI smoke
// mode.
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	fl "futurelocality"
)

func fibSeq(n int) int {
	if n < 2 {
		return n
	}
	a, b := 0, 1
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

// fib resolves the runtime from the executing worker, so a request the
// router forwarded to another shard spawns its interior tasks there —
// whole jobs move between shards, interior tasks never do.
func fib(w *fl.W, n int) int {
	if n < 12 {
		return fibSeq(n)
	}
	rt := w.Runtime()
	f := fl.Spawn(rt, w, func(w *fl.W) int { return fib(w, n-1) })
	y := fib(w, n-2)
	return f.Touch(w) + y
}

func main() {
	var (
		listen      = flag.String("listen", "", "serve /metrics, /debug/flight and /debug/vars on this address (empty: no HTTP)")
		requests    = flag.Int("requests", 64, "simulated requests to serve (0: run until SIGINT)")
		maxInFlight = flag.Int("max-in-flight", 8, "admission-control cap, split across shards (jobs in flight before forwarding/shedding)")
		batchSize   = flag.Int("batch", 1, "requests submitted per SubmitAll batch (1 = one Submit per request)")
		flightSize  = flag.Int("flight", 4096, "flight-recorder ring size per worker (0: default)")
		pace        = flag.Duration("pace", 200*time.Microsecond, "delay between request arrivals")
		topoSpec    = flag.String("topology", "", "cache topology for shard/worker placement: a synthetic DxC spec (e.g. 2x2), or empty for the host hierarchy from sysfs")
		shards      = flag.Int("shards", 0, "pool shard count (0: one shard per llc domain of the topology)")
	)
	flag.Parse()

	// The server: a sharded pool with admission control and the always-on
	// observability stack — counters are unconditional, every shard's flight
	// recorder rides along from construction.
	poolOpts := []fl.PoolOption{fl.WithPoolMaxInFlight(*maxInFlight),
		fl.WithShardRuntimeOptions(fl.WithFlightRecorder(*flightSize))}
	if *shards > 0 {
		poolOpts = append(poolOpts, fl.WithShards(*shards))
	}
	if *topoSpec != "" {
		topo, err := fl.SyntheticTopology(*topoSpec)
		if err != nil {
			log.Fatalf("jobserver: %v", err)
		}
		poolOpts = append(poolOpts, fl.WithPoolTopology(topo))
	}
	p := fl.NewPool(poolOpts...)
	defer p.Shutdown()
	fmt.Printf("topology %s: %d shards, %d workers total\n",
		p.Topology().Source, p.Shards(), p.Workers())
	for i := 0; i < p.Shards(); i++ {
		rt := p.Runtime(i)
		fmt.Printf("  shard %d: %s — %d workers, cap %d\n",
			i, rt.Topology().Source, rt.Workers(), rt.MaxInFlight())
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("listen %s: %v", *listen, err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := p.WriteMetrics(w); err != nil {
				log.Printf("/metrics: %v", err)
			}
		})
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
			for i := 0; i < p.Shards(); i++ {
				env, err := p.Runtime(i).FlightEnvelope()
				if err != nil {
					fmt.Fprintf(w, "shard %d: %v\n\n", i, err)
					continue
				}
				fmt.Fprintf(w, "shard %d flight window: %s\n\n", i, env)
				rep, err := p.Runtime(i).FlightReport(fl.ProfileOptions{NoMatrix: true, Trials: 2})
				if err != nil {
					fmt.Fprintf(w, "report unavailable: %v\n\n", err)
					continue
				}
				fmt.Fprint(w, rep)
				fmt.Fprintln(w)
			}
		})
		// The expvar page: the pool's map under one key, plus whatever the
		// stdlib publishes (memstats, cmdline).
		expvar.Publish("futurelocality", expvar.Func(func() any { return p.MetricsMap() }))
		mux.Handle("/debug/vars", expvar.Handler())
		srv := &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http: %v", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics (flight report on /debug/flight)\n", ln.Addr())
	}

	// SIGINT → graceful drain: stop accepting, flush in-flight jobs, print
	// the final snapshot.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	var (
		wg       sync.WaitGroup
		ok, shed atomic.Int64
	)
	// The handler: waits for its own job, like an HTTP handler goroutine
	// writing the response when the computation finishes. The handle is a
	// value — copy it into the goroutine, consume it exactly once.
	handle := func(job fl.PoolJob[int], n int) {
		defer wg.Done()
		v, err := job.WaitErr()
		if err != nil {
			log.Fatalf("job %d: %v", job.ID(), err)
		}
		if want := fibSeq(n); v != want {
			log.Fatalf("fib(%d) = %d, want %d", n, v, want)
		}
		ok.Add(1)
	}
	batch := *batchSize
	if batch < 1 {
		batch = 1
	}
	fns := make([]func(*fl.W) int, 0, batch)
	sizes := make([]int, 0, batch)
	jobs := make([]fl.PoolJob[int], 0, batch)
accept:
	for i := 0; *requests == 0 || i < *requests; i += batch {
		select {
		case sig := <-sigc:
			fmt.Printf("\n%v: draining %d in-flight jobs\n", sig, p.InFlight())
			break accept
		default:
		}
		if batch == 1 {
			n := 18 + i%6
			job, err := fl.PoolSubmit(p, func(w *fl.W) int { return fib(w, n) })
			if err != nil {
				// ErrSaturated from every candidate shard: the request is shed —
				// the router tried the placed shard, then the least-loaded one.
				// A real server writes 503 and moves on; nothing was queued.
				shed.Add(1)
			} else {
				wg.Add(1)
				go handle(job, n)
			}
		} else {
			// Batched front-end: coalesce a window of requests into one
			// SubmitAll — one admission visit per shard the router tries.
			// Admission is all-or-prefix per shard; the remainder batch is
			// forwarded to the least-loaded shard before anything is shed.
			fns, sizes, jobs = fns[:0], sizes[:0], jobs[:0]
			for b := 0; b < batch && (*requests == 0 || i+b < *requests); b++ {
				n := 18 + (i+b)%6
				fns = append(fns, func(w *fl.W) int { return fib(w, n) })
				sizes = append(sizes, n)
			}
			var err error
			jobs, err = fl.PoolSubmitAll(p, fns, jobs)
			if err != nil && !errors.Is(err, fl.ErrSaturated) {
				log.Fatalf("batch submit: %v", err)
			}
			shed.Add(int64(len(fns) - len(jobs)))
			for k := range jobs {
				wg.Add(1)
				go handle(jobs[k], sizes[k])
			}
		}
		// A trickle of pacing keeps the arrival pattern request-like; lower
		// it and the admission caps start forwarding and shedding in earnest.
		time.Sleep(*pace)
	}
	wg.Wait() // the drain: every admitted job completes before we report

	fmt.Printf("served %d requests: %d ok (%d forwarded to a non-home shard), %d shed (max in flight %d, %d shards × %d workers)\n",
		ok.Load()+shed.Load(), ok.Load(), p.Forwarded(), shed.Load(), p.MaxInFlight(), p.Shards(), p.Workers())
	lat := p.LatencyHist()
	qs := lat.Quantiles(0.50, 0.95, 0.99)
	fmt.Printf("latency: p50=%v p95=%v p99=%v (n=%d)\n",
		time.Duration(qs[0]), time.Duration(qs[1]), time.Duration(qs[2]), lat.Count())
	for i := 0; i < p.Shards(); i++ {
		if env, err := p.Runtime(i).FlightEnvelope(); err == nil {
			fmt.Printf("shard %d flight window: %s\n", i, env)
		}
	}
	fmt.Println("\nfinal metrics snapshot:")
	if err := p.WriteMetrics(os.Stdout); err != nil {
		log.Fatalf("metrics: %v", err)
	}
}
