package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lattecc/internal/harness"
	"lattecc/internal/sim"
)

// tinyConfig is the test machine: 2 SMs and a small instruction budget,
// the same shape the -tiny smoke configs use.
func tinyConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxInstructions = 40_000
	return cfg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.BaseConfig.NumSMs == 0 {
		cfg.BaseConfig = tinyConfig()
	}
	if cfg.DefaultDeadline == 0 {
		cfg.DefaultDeadline = time.Minute
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s, ts
}

func submit(t *testing.T, base string, req SubmitRequest) SubmitResponse {
	t.Helper()
	resp, body := post(t, base, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("submit response: %v (%s)", err, body)
	}
	return sr
}

func post(t *testing.T, base string, req SubmitRequest) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// waitJob polls a job to a terminal state.
func waitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == string(stateDone) || st.Status == string(stateFailed) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestSubmitStateHashMatchesDirect is the determinism contract: a batch
// served through the daemon — including one with config overrides —
// reports exactly the StateHash a direct Suite.MustRun computes for the
// same machine.
func TestSubmitStateHashMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sr := submit(t, ts.URL, SubmitRequest{Runs: []RunSpec{
		{Workload: "BO", Policy: "Uncompressed"},
		{Workload: "SS", Policy: "LATTE-CC"},
	}})
	if sr.Runs != 2 {
		t.Fatalf("accepted %d runs, want 2", sr.Runs)
	}
	st := waitJob(t, ts.URL, sr.ID)
	if st.Status != string(stateDone) {
		t.Fatalf("job failed: %s", st.Error)
	}

	direct := harness.NewSuite(tinyConfig())
	for _, r := range st.Results {
		res := direct.MustRun(r.Workload, harness.Policy(r.Policy), harness.Variant{})
		want := fmt.Sprintf("0x%016x", res.StateHash())
		if r.StateHash != want {
			t.Errorf("%s/%s: daemon hash %s, direct %s", r.Workload, r.Policy, r.StateHash, want)
		}
		if r.Cycles != res.Cycles || r.Instructions != res.Instructions {
			t.Errorf("%s/%s: counters diverge from direct run", r.Workload, r.Policy)
		}
	}

	// Same contract through a config override (distinct resident suite).
	smaller := 8
	sr2 := submit(t, ts.URL, SubmitRequest{
		Workload: "BO", Policy: "LATTE-CC",
		Config: &ConfigOverrides{MSHRs: &smaller},
	})
	st2 := waitJob(t, ts.URL, sr2.ID)
	if st2.Status != string(stateDone) {
		t.Fatalf("override job failed: %s", st2.Error)
	}
	cfg := tinyConfig()
	cfg.MSHRs = smaller
	res := harness.NewSuite(cfg).MustRun("BO", harness.LatteCC, harness.Variant{})
	if want := fmt.Sprintf("0x%016x", res.StateHash()); st2.Results[0].StateHash != want {
		t.Errorf("override run hash %s, direct %s", st2.Results[0].StateHash, want)
	}
}

// TestConcurrentSubmissionsDeterministic hammers the daemon with
// overlapping batches from many clients and checks (a) every job
// finishes, (b) all copies of the same run agree on the StateHash, and
// (c) the single-flight cache collapsed the duplicates to one fresh
// simulation per distinct run.
func TestConcurrentSubmissionsDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	batch := []RunSpec{
		{Workload: "BO", Policy: "Uncompressed"},
		{Workload: "SS", Policy: "Uncompressed"},
		{Workload: "SS", Policy: "LATTE-CC"},
		{Workload: "FW", Policy: "LATTE-CC"},
	}
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts.URL, SubmitRequest{Runs: batch}).ID
		}(i)
	}
	wg.Wait()

	hashes := map[string]string{}
	for _, id := range ids {
		st := waitJob(t, ts.URL, id)
		if st.Status != string(stateDone) {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		for _, r := range st.Results {
			key := r.Workload + "/" + r.Policy
			if prev, ok := hashes[key]; ok && prev != r.StateHash {
				t.Errorf("%s: hash diverged across jobs: %s vs %s", key, prev, r.StateHash)
			}
			hashes[key] = r.StateHash
		}
	}

	s.mu.Lock()
	var fresh uint64
	for _, st := range s.suites {
		fresh += st.Simulations()
	}
	s.mu.Unlock()
	if fresh != uint64(len(batch)) {
		t.Errorf("distinct runs simulated %d times, want %d", fresh, len(batch))
	}
}

// TestQueueOverflow fills the queue behind a held worker and checks the
// daemon answers 429 with Retry-After instead of blocking or dropping.
func TestQueueOverflow(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		startHook: func(j *Job) {
			started <- j
			<-release
		},
	})
	defer close(release) // let cleanup shutdown drain

	one := SubmitRequest{Workload: "BO", Policy: "Uncompressed"}
	submit(t, ts.URL, one) // picked up by the single worker
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up first job")
	}
	submit(t, ts.URL, one) // sits in the queue (depth 1)

	resp, body := post(t, ts.URL, one) // no room left
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if got := s.metrics.rejectedFull.Load(); got != 1 {
		t.Errorf("rejectedFull = %d, want 1", got)
	}
}

// TestGracefulShutdown: Shutdown rejects new submissions immediately
// (503), completes the in-flight and queued jobs, and returns nil once
// drained.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	cfg := Config{
		BaseConfig: tinyConfig(),
		Workers:    1,
		QueueDepth: 4,
		startHook: func(j *Job) {
			select {
			case started <- j:
				<-release
			default: // queued job executing during drain: don't block
			}
		},
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := submit(t, ts.URL, SubmitRequest{Workload: "BO", Policy: "Uncompressed"})
	<-started
	queued := submit(t, ts.URL, SubmitRequest{Workload: "SS", Policy: "Uncompressed"})

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining: new work must bounce with 503.
	waitFor(t, func() bool { return s.draining.Load() })
	resp, body := post(t, ts.URL, SubmitRequest{Workload: "FW", Policy: "Uncompressed"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, body %s", resp.StatusCode, body)
	}
	if rr, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		rr.Body.Close()
		if rr.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz during drain: status %d, want 503", rr.StatusCode)
		}
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Both the in-flight and the queued job finished with results.
	for _, id := range []string{inflight.ID, queued.ID} {
		st := waitJob(t, ts.URL, id)
		if st.Status != string(stateDone) || len(st.Results) != 1 {
			t.Errorf("job %s after drain: status %s, %d results", id, st.Status, len(st.Results))
		}
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestMetricsAccounting pins the acceptance identity: the fresh and
// cache-hit counters exported by /metrics must sum to exactly what the
// resident suites report, and the rendered page carries the expected
// metric families.
func TestMetricsAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	batch := SubmitRequest{Runs: []RunSpec{
		{Workload: "BO", Policy: "Uncompressed"},
		{Workload: "SS", Policy: "Uncompressed"},
	}}
	first := submit(t, ts.URL, batch)
	waitJob(t, ts.URL, first.ID)
	second := submit(t, ts.URL, batch) // fully cache-served
	waitJob(t, ts.URL, second.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	var fresh, hits uint64
	for _, line := range strings.Split(string(page), "\n") {
		if n, _ := fmt.Sscanf(line, "latteccd_simulations_fresh_total %d", &fresh); n == 1 {
			continue
		}
		fmt.Sscanf(line, "latteccd_simulation_cache_hits_total %d", &hits)
	}

	s.mu.Lock()
	var wantFresh, wantHits uint64
	for _, st := range s.suites {
		wantFresh += st.Simulations()
		wantHits += st.CacheHits()
	}
	s.mu.Unlock()
	if fresh != wantFresh || hits != wantHits {
		t.Errorf("metrics fresh=%d hits=%d, suites report fresh=%d hits=%d", fresh, hits, wantFresh, wantHits)
	}
	if fresh+hits != wantFresh+wantHits {
		t.Errorf("fresh+hits = %d, want Simulations()+CacheHits() = %d", fresh+hits, wantFresh+wantHits)
	}
	if fresh != 2 {
		t.Errorf("fresh simulations = %d, want 2 (second batch must be cache-served)", fresh)
	}
	if hits < 2 {
		t.Errorf("cache hits = %d, want >= 2", hits)
	}

	for _, family := range []string{
		"latteccd_jobs_accepted_total",
		"latteccd_jobs_completed_total",
		"latteccd_jobs_rejected_total{reason=\"queue_full\"}",
		"latteccd_queue_depth",
		"latteccd_run_seconds_bucket",
		"latteccd_run_seconds_count",
	} {
		if !strings.Contains(string(page), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestSSEEvents reads a finished job's event stream and checks the full
// replay: queued, running, one run frame per request, done — in order.
// A batch that names the same run twice gets two results and two run
// frames: every request is answered, not every distinct run.
func TestSSEEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, runs := range [][]RunSpec{
		{{Workload: "BO", Policy: "Uncompressed"}, {Workload: "BO", Policy: "LATTE-CC"}},
		{{Workload: "SS", Policy: "Static-BDI"}, {Workload: "SS", Policy: "Static-BDI"}},
	} {
		sr := submit(t, ts.URL, SubmitRequest{Runs: runs})
		if st := waitJob(t, ts.URL, sr.ID); st.Status != string(stateDone) || len(st.Results) != len(runs) {
			t.Fatalf("%v: status %s, %d results, want %d", runs, st.Status, len(st.Results), len(runs))
		}
		types, runFrames := readEvents(t, ts.URL, sr.ID)
		want := []string{"queued", "running", "run", "run", "done"}
		if strings.Join(types, ",") != strings.Join(want, ",") {
			t.Fatalf("%v: event sequence %v, want %v", runs, types, want)
		}
		for _, rr := range runFrames {
			if rr.StateHash == "" || rr.Cycles == 0 {
				t.Errorf("run frame %s/%s missing payload", rr.Workload, rr.Policy)
			}
		}
	}
}

// readEvents replays a finished job's SSE stream, returning the event
// types in order and the payload of every run frame.
func readEvents(t *testing.T, base, id string) ([]string, []RunResult) {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var types []string
	var runFrames []RunResult
	sc := bufio.NewScanner(resp.Body)
	cur := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = strings.TrimPrefix(line, "event: ")
			types = append(types, cur)
		case strings.HasPrefix(line, "data: ") && cur == "run":
			var rr RunResult
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rr); err != nil {
				t.Fatalf("run frame: %v", err)
			}
			runFrames = append(runFrames, rr)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, runFrames
}

// scrapeCounter reads one unlabelled counter off /metrics.
func scrapeCounter(t *testing.T, base, name string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(page), "\n") {
		var v uint64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestCachedAttribution: a run a job simulates is reported uncached and
// is not a cache hit; the same batch resubmitted is served from memory,
// reported cached, and counts one hit per request.
func TestCachedAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := SubmitRequest{Runs: []RunSpec{
		{Workload: "BO", Policy: "Uncompressed"},
		{Workload: "SS", Policy: "Uncompressed"},
	}}

	for pass, want := range []struct {
		cached bool
		hits   uint64
	}{{false, 0}, {true, 2}} {
		st := waitJob(t, ts.URL, submit(t, ts.URL, batch).ID)
		if st.Status != string(stateDone) || len(st.Results) != 2 {
			t.Fatalf("pass %d: status %s, %d results", pass, st.Status, len(st.Results))
		}
		for _, r := range st.Results {
			if r.Cached != want.cached {
				t.Errorf("pass %d: %s/%s cached=%v, want %v", pass, r.Workload, r.Policy, r.Cached, want.cached)
			}
		}
		if got := scrapeCounter(t, ts.URL, "latteccd_simulation_cache_hits_total"); got != want.hits {
			t.Errorf("pass %d: cache hits %d, want %d", pass, got, want.hits)
		}
	}
}

// TestTimedOutJobLeavesNothingBehind: a job that runs out of time must
// not hand its unrun requests to the next job on the same suite — that
// job simulates exactly its own run, under its own deadline.
func TestTimedOutJobLeavesNothingBehind(t *testing.T) {
	s, ts := newTestServer(t, Config{RunJobs: 1})
	sms := 1
	ov := &ConfigOverrides{NumSMs: &sms} // private override: a cold suite

	var six []RunSpec
	for _, w := range []string{"BO", "SS", "FW"} {
		for _, p := range []string{"Uncompressed", "LATTE-CC"} {
			six = append(six, RunSpec{Workload: w, Policy: p})
		}
	}
	st := waitJob(t, ts.URL, submit(t, ts.URL, SubmitRequest{Runs: six, Config: ov, DeadlineMS: 1}).ID)
	if st.Status != string(stateFailed) || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("6-run job under 1 ms: status %s, error %q", st.Status, st.Error)
	}

	cfg, err := ov.Apply(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	suite := s.suites[cfg.Fingerprint()]
	s.mu.Unlock()
	before := suite.Simulations()

	st = waitJob(t, ts.URL, submit(t, ts.URL, SubmitRequest{Workload: "NW", Policy: "Uncompressed", Config: ov}).ID)
	if st.Status != string(stateDone) {
		t.Fatalf("follow-up job: %s (%s)", st.Status, st.Error)
	}
	if got := suite.Simulations() - before; got != 1 {
		t.Fatalf("1-run job after a timed-out one simulated %d runs, want 1", got)
	}
}

// TestTerminalStateCarriesEvent races complete/fail against a snapshot
// loop, the way handleEvents polls: whenever a snapshot reports a
// terminal state, its event log must already end with the matching
// terminal event, or the SSE stream would close without it.
func TestTerminalStateCarriesEvent(t *testing.T) {
	for i := 0; i < 500; i++ {
		j := newJob(fmt.Sprintf("job-%d", i), nil, nil, 0, 0)
		want := "done"
		go func(i int) {
			if i%2 == 0 {
				j.complete(nil)
			} else {
				j.fail("boom")
			}
		}(i)
		if i%2 == 1 {
			want = "failed"
		}
		for {
			events, state, _ := j.snapshot()
			if state != stateDone && state != stateFailed {
				continue
			}
			if last := events[len(events)-1].Type; last != want {
				t.Fatalf("job %d: state %s but last event %q, want %q", i, state, last, want)
			}
			break
		}
	}
}

// TestValidation covers the 400/404 surface and a deadline failure.
func TestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"empty", SubmitRequest{}},
		{"unknown workload", SubmitRequest{Workload: "NOPE", Policy: "Uncompressed"}},
		{"unknown policy", SubmitRequest{Workload: "BO", Policy: "bogus"}},
		{"inline and batch", SubmitRequest{Workload: "BO", Policy: "Uncompressed",
			Runs: []RunSpec{{Workload: "SS", Policy: "Uncompressed"}}}},
		{"bad override", SubmitRequest{Workload: "BO", Policy: "Uncompressed",
			Config: &ConfigOverrides{NumSMs: new(int)}}}, // zero SMs
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", tc.name, resp.StatusCode, body)
		}
	}
	if got := s.metrics.rejectedInvalid.Load(); got != uint64(len(cases)) {
		t.Errorf("rejectedInvalid = %d, want %d", got, len(cases))
	}

	// Malformed JSON, and an override field the daemon does not know.
	for _, body := range []string{
		"{nope",
		`{"workload":"BO","policy":"Uncompressed","config":{"sm_jobs":2}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d", body, resp.StatusCode)
		}
	}

	// Unknown job.
	resp, err := http.Get(ts.URL + "/v1/runs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}

	// A 1 ms deadline cannot cover a fresh simulation: the job must fail
	// cleanly, not hang. A private override keys a cold suite.
	sms := 1
	sr := submit(t, ts.URL, SubmitRequest{
		Workload: "BO", Policy: "Uncompressed",
		Config:     &ConfigOverrides{NumSMs: &sms},
		DeadlineMS: 1,
	})
	st := waitJob(t, ts.URL, sr.ID)
	if st.Status != string(stateFailed) || !strings.Contains(st.Error, "deadline") {
		t.Errorf("deadline job: status %s, error %q", st.Status, st.Error)
	}
}

// TestFingerprint pins suite-sharing semantics: identical configs map
// to one suite, any material override keys a new one.
func TestFingerprint(t *testing.T) {
	base := tinyConfig()
	if base.Fingerprint() != tinyConfig().Fingerprint() {
		t.Error("identical configs must share a fingerprint")
	}
	mut := base
	mut.MSHRs++
	if mut.Fingerprint() == base.Fingerprint() {
		t.Error("changed MSHRs must change the fingerprint")
	}
	mut = base
	mut.Cache.SizeBytes *= 2
	if mut.Fingerprint() == base.Fingerprint() {
		t.Error("changed L1 size must change the fingerprint")
	}
}

// TestOverrideApply covers the validation corners of ConfigOverrides.
func TestOverrideApply(t *testing.T) {
	base := tinyConfig()

	var nilOv *ConfigOverrides
	got, err := nilOv.Apply(base)
	if err != nil || got != base {
		t.Fatalf("nil overrides must be identity, got err %v", err)
	}

	bad := -1
	if _, err := (&ConfigOverrides{L1Ports: &bad}).Apply(base); err == nil {
		t.Error("negative l1_ports must be rejected")
	}
	var zero uint64
	if _, err := (&ConfigOverrides{MaxInstructions: &zero}).Apply(base); err == nil {
		t.Error("zero max_instructions must be rejected")
	}
	tooSmall := base.Cache.LineSize // one line < one set
	if _, err := (&ConfigOverrides{L1SizeBytes: &tooSmall}).Apply(base); err == nil {
		t.Error("sub-set l1_size_bytes must be rejected")
	}

	n := 4
	got, err = (&ConfigOverrides{NumSMs: &n}).Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSMs != 4 {
		t.Errorf("NumSMs = %d, want 4", got.NumSMs)
	}
	if base.NumSMs != 2 {
		t.Error("apply must not mutate its input")
	}
}
