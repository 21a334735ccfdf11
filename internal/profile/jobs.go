package profile

// Per-job trace splitting: a multi-tenant runtime (runtime.Submit) runs many
// independent computations on one worker pool, and its trace interleaves all
// of them. Event.Job carries each event's job identity, so the trace can be
// partitioned into one sub-trace per job — each a self-contained session
// covering exactly that job's computation (the external spawn of its root,
// every task the job forked, every touch and displacement) — and each job's
// measured deviations checked against its *own* P·T∞² envelope. A pooled
// verdict would let one badly-deviating job hide inside a well-behaved
// neighbor's slack; per-job splitting is what makes the paper's
// per-computation bound meaningful under concurrent load.

import "slices"

// jobRuns groups tr's events by job, every job at once in two sweeps (count,
// then fill), and copies none of them: runs[k] holds the events of job ids[k]
// as maximal runs of consecutive events within one log, each log's in order,
// logs in trace order — the order Reconstruct reads a trace in, so
// reconstruct(runs[k]) is the reconstruction of the sub-trace that holds job
// ids[k]'s events alone, each worker's in its order
// (TestJobReportsMatchSplitJobs). ids must be sorted; events of jobs not in
// it are left out.
func jobRuns(tr *Trace, ids []uint64) [][][]Event {
	logs := tr.logs()
	each := func(fn func(k int, run []Event)) {
		for _, log := range logs {
			for lo, hi := 0, 0; lo < len(log); lo = hi {
				job := log[lo].Job
				for hi = lo + 1; hi < len(log) && log[hi].Job == job; hi++ {
				}
				if k, ok := slices.BinarySearch(ids, job); ok && job != 0 {
					fn(k, log[lo:hi])
				}
			}
		}
	}
	// A counting sort: count each job's runs, give each job its share of one
	// array, then fill the shares in trace order.
	ends := make([]int, len(ids))
	each(func(k int, _ []Event) { ends[k]++ })
	all := 0
	for k, n := range ends {
		all += n
		ends[k] = all
	}
	flat := make([][]Event, all)
	runs := make([][][]Event, len(ids))
	start := 0
	for k, end := range ends {
		runs[k] = flat[start:start:end]
		start = end
	}
	each(func(k int, run []Event) { runs[k] = append(runs[k], run) })
	return runs
}
