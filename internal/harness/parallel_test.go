package harness

import (
	"strings"
	"sync"
	"testing"
)

// TestParallelMatchesSerialFig11 is the parallel-determinism lock: the
// full Figure 11 run set executed serially (Jobs=1) and through an
// 8-worker pool must produce the same StateHash for every run and
// byte-identical rendered tables. Completion order must not leak into
// results or output.
func TestParallelMatchesSerialFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fig11 passes (minutes)")
	}
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(60_000) // fidelity is irrelevant here; equality is the point

	reqs := fig11().runs()
	pass := func(jobs int) (map[string]uint64, string) {
		s := NewSuite(cfg)
		s.Jobs = jobs
		s.Prefetch(reqs...)
		if err := s.RunAll(); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		hashes := make(map[string]uint64, len(reqs))
		for _, r := range reqs {
			res, err := s.Run(r.Workload, r.Policy, r.Variant)
			if err != nil {
				t.Fatalf("jobs=%d %s/%s: %v", jobs, r.Workload, r.Policy, err)
			}
			hashes[r.Workload+"/"+string(r.Policy)] = res.StateHash()
		}
		tab, err := fig11().table(s)
		if err != nil {
			t.Fatalf("jobs=%d fig11 table: %v", jobs, err)
		}
		return hashes, tab.String()
	}

	serialHashes, serialTable := pass(1)
	parHashes, parTable := pass(8)

	if len(serialHashes) != len(parHashes) {
		t.Fatalf("run-set size differs: %d serial vs %d parallel", len(serialHashes), len(parHashes))
	}
	for k, h := range serialHashes {
		if ph := parHashes[k]; ph != h {
			t.Errorf("%s: state hash diverged: serial %#x parallel %#x", k, h, ph)
		}
	}
	if serialTable != parTable {
		t.Errorf("rendered fig11 tables differ:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", serialTable, parTable)
	}
}

// TestSingleFlightSharedRuns submits overlapping run sets from several
// concurrent "experiments" and asserts each shared (workload, policy)
// pair simulated exactly once.
func TestSingleFlightSharedRuns(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(100_000)

	s := NewSuite(cfg)
	shared := []RunRequest{
		{Workload: "BO", Policy: Uncompressed},
		{Workload: "SS", Policy: Uncompressed},
		{Workload: "SS", Policy: LatteCC},
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range shared {
				if _, err := s.Run(r.Workload, r.Policy, r.Variant); err != nil {
					t.Errorf("%s/%s: %v", r.Workload, r.Policy, err)
				}
			}
		}()
	}
	wg.Wait()

	if got := s.Simulations(); got != uint64(len(shared)) {
		t.Fatalf("shared runs simulated %d times, want exactly %d", got, len(shared))
	}

	// Prefetch is idempotent too: re-submitting the same set and
	// draining again must not re-simulate anything.
	s.Prefetch(shared...)
	s.Prefetch(shared...)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := s.Simulations(); got != uint64(len(shared)) {
		t.Fatalf("RunAll re-simulated cached runs: %d sims, want %d", got, len(shared))
	}
}

// TestRunAllSurfacesErrors checks that a bad request fails RunAll with
// an identifying error while the healthy requests still complete.
func TestRunAllSurfacesErrors(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(50_000)

	s := NewSuite(cfg)
	s.Jobs = 4
	s.Prefetch(
		RunRequest{Workload: "BO", Policy: Uncompressed},
		RunRequest{Workload: "NOPE", Policy: Uncompressed},
		RunRequest{Workload: "BO", Policy: Policy("bogus")},
	)
	err := s.RunAll()
	if err == nil {
		t.Fatal("RunAll must surface request errors")
	}
	for _, frag := range []string{"NOPE", "bogus"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not identify failing request %q", err, frag)
		}
	}
	if _, err := s.Run("BO", Uncompressed, Variant{}); err != nil {
		t.Errorf("healthy request must still be served: %v", err)
	}
	if got := s.Simulations(); got != 1 {
		t.Errorf("exactly the healthy request should have simulated, got %d", got)
	}
}

// TestProgressReporterEvents drains a small pool with a recording
// reporter and checks every completed run reports with consistent
// progress counters.
func TestProgressReporterEvents(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(50_000)

	rec := &recordingReporter{}
	s := NewSuite(cfg)
	s.Jobs = 4
	s.Reporter = rec
	reqs := []RunRequest{
		{Workload: "BO", Policy: Uncompressed},
		{Workload: "SS", Policy: Uncompressed},
		{Workload: "FW", Policy: Uncompressed},
	}
	s.Prefetch(reqs...)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.events) != len(reqs) {
		t.Fatalf("reporter saw %d events, want %d", len(rec.events), len(reqs))
	}
	seenDone := map[int]bool{}
	for _, e := range rec.events {
		if e.Total != len(reqs) {
			t.Errorf("event total = %d, want %d", e.Total, len(reqs))
		}
		if e.Done < 1 || e.Done > len(reqs) || seenDone[e.Done] {
			t.Errorf("bad or duplicate done counter %d", e.Done)
		}
		seenDone[e.Done] = true
		if e.Result.Cycles == 0 {
			t.Errorf("%s/%s: event carries empty result", e.Workload, e.Policy)
		}
		if e.Duration <= 0 {
			t.Errorf("%s/%s: event carries no per-run duration", e.Workload, e.Policy)
		}
	}
}

type recordingReporter struct {
	mu     sync.Mutex
	events []RunEvent
}

func (r *recordingReporter) RunDone(e RunEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}
