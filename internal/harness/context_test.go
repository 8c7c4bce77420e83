package harness

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"lattecc/internal/sim"
)

// TestRunBatchPreCancelled: a context that is already dead must run
// nothing, call back for nothing, and leave the prefetch queue exactly
// as it was.
func TestRunBatchPreCancelled(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(50_000)

	s := NewSuite(cfg)
	queued := []RunRequest{{Workload: "NW", Policy: Uncompressed}}
	s.Prefetch(queued...)
	reqs := []RunRequest{
		{Workload: "BO", Policy: Uncompressed},
		{Workload: "SS", Policy: Uncompressed},
		{Workload: "FW", Policy: Uncompressed},
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	s.RunBatch(ctx, 2, reqs, func(int, sim.Result, bool, error) { calls.Add(1) })
	if got := calls.Load(); got != 0 {
		t.Fatalf("cancelled batch called back %d times, want 0", got)
	}
	if got := s.Simulations(); got != 0 {
		t.Fatalf("cancelled batch simulated %d runs, want 0", got)
	}
	s.mu.Lock()
	q := append([]RunRequest(nil), s.queue...)
	s.mu.Unlock()
	if !reflect.DeepEqual(q, queued) {
		t.Fatalf("prefetch queue %v after cancelled batch, want %v", q, queued)
	}
}

// TestRunBatchCancelMidBatch cancels from the first callback. With one
// worker the batch must stop at exactly one simulation instead of
// running the whole request list.
func TestRunBatchCancelMidBatch(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(50_000)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s := NewSuite(cfg)
	reqs := []RunRequest{
		{Workload: "BO", Policy: Uncompressed},
		{Workload: "SS", Policy: Uncompressed},
		{Workload: "FW", Policy: Uncompressed},
		{Workload: "NW", Policy: Uncompressed},
	}
	calls := 0
	s.RunBatch(ctx, 1, reqs, func(i int, _ sim.Result, _ bool, err error) {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
		calls++
		cancel()
	})
	if calls != 1 {
		t.Fatalf("single worker past cancellation called back %d times, want 1", calls)
	}
	if got := s.Simulations(); got != 1 {
		t.Fatalf("single worker past cancellation simulated %d runs, want 1", got)
	}
}

// TestRunBatchCachedFlag: a batch naming one run twice runs it once and
// calls back twice; the cached flag is set exactly on the call that
// CacheHits counts.
func TestRunBatchCachedFlag(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(50_000)

	s := NewSuite(cfg)
	bo := RunRequest{Workload: "BO", Policy: Uncompressed}
	var cached []bool
	s.RunBatch(context.Background(), 1, []RunRequest{bo, bo}, func(i int, res sim.Result, c bool, err error) {
		if err != nil || res.Cycles == 0 {
			t.Errorf("request %d: err %v, cycles %d", i, err, res.Cycles)
		}
		cached = append(cached, c)
	})
	if !reflect.DeepEqual(cached, []bool{false, true}) {
		t.Fatalf("cached flags %v, want [false true]", cached)
	}
	if sims, hits := s.Simulations(), s.CacheHits(); sims != 1 || hits != 1 {
		t.Fatalf("sims=%d hits=%d, want 1 and 1", sims, hits)
	}
}

// TestCacheHitCounter pins the Run-level hit/fresh split the serving
// layer exposes: every Run call lands in exactly one of Simulations or
// CacheHits.
func TestCacheHitCounter(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(50_000)

	s := NewSuite(cfg)
	if _, err := s.Run("BO", Uncompressed, Variant{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("BO", Uncompressed, Variant{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("BO", Uncompressed, Variant{}); err != nil {
		t.Fatal(err)
	}
	if sims, hits := s.Simulations(), s.CacheHits(); sims != 1 || hits != 2 {
		t.Fatalf("sims=%d hits=%d, want 1 and 2", sims, hits)
	}
}
