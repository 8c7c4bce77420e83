package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lattecc/internal/sim"
)

// RunRequest names one simulation for Prefetch/RunAll and RunBatch.
type RunRequest struct {
	Workload string
	Policy   Policy
	Variant  Variant
}

// Prefetch queues requests for a later RunAll. Duplicates are queued
// once, preserving first-submission order; experiments that share runs
// (Figures 11-14 share every (workload, policy) pair) can therefore all
// submit their full run set and the pool still simulates each pair
// exactly once.
func (s *Suite) Prefetch(reqs ...RunRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range reqs {
		k := key{workload: r.Workload, policy: r.Policy, variant: r.Variant}
		if s.queued[k] {
			continue
		}
		s.queued[k] = true
		s.queue = append(s.queue, r)
	}
}

// RunAll drains every prefetched request through a bounded worker pool
// of Jobs workers and returns the failures joined in submission order.
// Results land in the suite's cache, so the serial rendering pass that
// follows sees only cache hits — output is byte-identical to a fully
// serial execution regardless of completion order.
func (s *Suite) RunAll() error { return RunAllSuites(s.Jobs, s) }

// RunAllSuites drains the prefetched sets of several suites through one
// shared pool of jobs workers (<= 0 means GOMAXPROCS), for tools that
// sweep a parameter across per-configuration suites. Tasks execute in
// any order; errors are joined deterministically in submission order.
func RunAllSuites(jobs int, suites ...*Suite) error {
	type task struct {
		s   *Suite
		req RunRequest
	}
	var tasks []task
	for _, s := range suites {
		s.mu.Lock()
		for _, r := range s.queue {
			tasks = append(tasks, task{s: s, req: r})
		}
		s.queue = nil
		s.mu.Unlock()
	}

	// Wall-clock time below is display-only (progress/ETA); nothing
	// cycle-level ever observes it.
	start := time.Now()
	errs := make([]error, len(tasks))
	var done atomic.Int64
	forEach(context.Background(), jobs, len(tasks), func(i int) {
		t := tasks[i]
		runStart := time.Now()
		res, err := t.s.Run(t.req.Workload, t.req.Policy, t.req.Variant)
		d := int(done.Add(1))
		if err != nil {
			errs[i] = fmt.Errorf("%s/%s: %w", t.req.Workload, t.req.Policy, err)
			return
		}
		if rep := t.s.Reporter; rep != nil {
			rep.RunDone(RunEvent{
				Workload: t.req.Workload,
				Policy:   t.req.Policy,
				Variant:  t.req.Variant,
				Result:   res,
				Done:     d,
				Total:    len(tasks),
				Elapsed:  time.Since(start),
				Duration: time.Since(runStart),
			})
		}
	})
	return errors.Join(errs...)
}

// RunBatch runs exactly reqs on s, each once, on at most jobs workers
// (<= 0 means GOMAXPROCS); it never touches the prefetch queue. As
// request i completes, its worker calls done(i, res, cached, err), so
// done must be safe for concurrent use. cached is true exactly when the
// in-memory cache served the call (a completed entry or a single-flight
// join), i.e. when CacheHits counts it. Cancellation is dispatch-level:
// once ctx is done no further request starts and requests never started
// get no callback, but a request already started runs to completion,
// its wait for a slot included (the cycle loop is not interruptible —
// determinism would otherwise depend on when the cancel landed). A
// wait function carried by ctx (WithSlotWait) observes the batch's
// slot waits.
func (s *Suite) RunBatch(ctx context.Context, jobs int, reqs []RunRequest, done func(i int, res sim.Result, cached bool, err error)) {
	wait, _ := ctx.Value(slotWaitKey{}).(func(bool))
	forEach(ctx, jobs, len(reqs), func(i int) {
		r := reqs[i]
		res, cached, err := s.run(r.Workload, r.Policy, r.Variant, wait)
		done(i, res, cached, err)
	})
}

type slotWaitKey struct{}

// WithSlotWait returns a copy of ctx carrying wait, which RunBatch calls
// with true when one of its requests starts waiting for a slot
// (Suite.Slots) and with false when that request has one. Calls for
// different requests may overlap, so wait must be safe for concurrent
// use. Like httptrace.WithClientTrace, it observes and changes nothing.
func WithSlotWait(ctx context.Context, wait func(waiting bool)) context.Context {
	return context.WithValue(ctx, slotWaitKey{}, wait)
}

// forEach is the harness's one worker pool: it calls work(i) for every
// i in [0, n), claiming indices in order on at most jobs goroutines
// (<= 0 means GOMAXPROCS), and returns once every claimed call has
// finished. Once ctx is done no further index is claimed.
func forEach(ctx context.Context, jobs, n int, work func(i int)) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}

// RunEvent describes one run drained by RunAll.
type RunEvent struct {
	Workload string
	Policy   Policy
	Variant  Variant
	Result   sim.Result
	// Done and Total report pool progress; Elapsed is the pool's
	// wall-clock age when the run completed, Duration this run's own
	// wall-clock cost (the latency a serving layer should histogram).
	Done     int
	Total    int
	Elapsed  time.Duration
	Duration time.Duration
}

// Reporter receives completion events from RunAll. Implementations must
// be safe for concurrent use.
type Reporter interface {
	RunDone(RunEvent)
}

// NewProgressReporter returns a Reporter that prints one line per
// completed run with [done/total] progress and an ETA extrapolated from
// the pool's throughput so far. It serializes writes internally.
func NewProgressReporter(w io.Writer) Reporter {
	return &progressReporter{w: w}
}

type progressReporter struct {
	mu sync.Mutex
	w  io.Writer
}

func (p *progressReporter) RunDone(e RunEvent) {
	eta := ""
	if e.Done > 0 && e.Done < e.Total {
		left := time.Duration(float64(e.Elapsed) / float64(e.Done) * float64(e.Total-e.Done))
		eta = fmt.Sprintf("  eta %s", left.Round(time.Second))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "[%3d/%3d] ran %-4s %-18s cycles=%9d ipc=%6.2f hit=%.3f%s\n",
		e.Done, e.Total, e.Workload, e.Policy,
		e.Result.Cycles, e.Result.IPC(), e.Result.Cache.HitRate(), eta)
}
