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

// TestRejectedSubmitLeavesNoSuite: a submission refused with 429 must
// not leave a resident suite behind for its machine config. The full
// queue and the injected server.queue-overflow fault share this path.
func TestRejectedSubmitLeavesNoSuite(t *testing.T) {
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
	defer close(release)

	one := SubmitRequest{Workload: "BO", Policy: "Uncompressed"}
	submit(t, ts.URL, one)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up first job")
	}
	submit(t, ts.URL, one) // fills the queue

	suites := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.suites)
	}
	before := suites()
	for i := 0; i < 5; i++ {
		mshrs := 8 + i // a new fingerprint per refused submission
		req := one
		req.Config = &ConfigOverrides{MSHRs: &mshrs}
		if resp, body := post(t, ts.URL, req); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit %d into a full queue: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	if got := suites(); got != before {
		t.Fatalf("resident suites %d -> %d after five refused submissions", before, got)
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
	waitFor(t, s.gate.Draining)
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

// TestAdmissionRacesDrain fires concurrent submissions at Shutdown.
// Every 202 must name a job that is terminal once Shutdown returns —
// nothing is admitted behind the workers' final drain — and every
// refusal must be a 503 counted as reason="draining".
func TestAdmissionRacesDrain(t *testing.T) {
	s := New(Config{BaseConfig: tinyConfig(), Workers: 2, QueueDepth: 256, DefaultDeadline: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 48
	codes, ids := make([]int, n), make([]string, n)
	errs := make(chan error, n)
	answered := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { answered <- struct{}{} }()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
				strings.NewReader(`{"workload":"BO","policy":"Uncompressed"}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var sr SubmitResponse
			if resp.StatusCode == http.StatusAccepted {
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
					errs <- err
				}
				ids[i] = sr.ID
			}
		}(i)
	}
	<-answered // let some submissions land, then drain under the rest
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	accepted, refused := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
			resp, err := http.Get(ts.URL + "/v1/runs/" + ids[i])
			if err != nil {
				t.Fatal(err)
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Status != string(stateDone) && st.Status != string(stateFailed) {
				t.Errorf("admitted job %s is %q after the drain", ids[i], st.Status)
			}
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Errorf("submission %d answered %d, want 202 or 503", i, code)
		}
	}
	if got := s.metrics.jobsAccepted.Load(); got != uint64(accepted) {
		t.Errorf("jobs_accepted_total %d, want the %d 202s", got, accepted)
	}
	if got := scrapeCounter(t, ts.URL, `latteccd_jobs_rejected_total{reason="draining"}`); got != uint64(refused) {
		t.Errorf(`jobs_rejected_total{reason="draining"} = %d, want the %d 503s`, got, refused)
	}
	t.Logf("%d admitted, %d refused", accepted, refused)
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
		j := newJob(fmt.Sprintf("job-%d", i), nil, 0, 0)
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

// unbuildableOverrides are config overrides that name no buildable
// machine: four that reached sim.New's allocations (or its L2 panic)
// before sim.Config.Validate bounded the knobs, an L2 below one set per
// bank and way, and each bounded knob at its maximum + 1.
func unbuildableOverrides() []string {
	m := sim.DefaultConfig().Mem
	return []string{
		`{"l2_size_bytes":1}`,
		`{"num_sms":1073741824}`,
		`{"l1_size_bytes":1099511627776}`,
		`{"mshrs":1000000000000}`,
		fmt.Sprintf(`{"l2_size_bytes":%d}`, m.LineSize*m.L2Ways*m.L2Banks-1),
		fmt.Sprintf(`{"num_sms":%d}`, sim.MaxSMs+1),
		fmt.Sprintf(`{"max_warps_per_sm":%d}`, sim.MaxWarps+1),
		fmt.Sprintf(`{"l1_ports":%d}`, sim.MaxL1Ports+1),
		fmt.Sprintf(`{"mshrs":%d}`, sim.MaxMSHRs+1),
		fmt.Sprintf(`{"l1_size_bytes":%d}`, sim.MaxL1Bytes+1),
		fmt.Sprintf(`{"l2_size_bytes":%d}`, sim.MaxL2Bytes+1),
	}
}

// TestUnbuildableOverridesRejected: every unbuildable override answers
// 400, keys no resident suite, and counts as an invalid rejection.
func TestUnbuildableOverridesRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bad := unbuildableOverrides()
	for _, ov := range bad {
		body := `{"workload":"BO","policy":"Uncompressed","config":` + ov + `}`
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", ov, resp.StatusCode, msg)
		}
	}
	s.mu.Lock()
	suites := len(s.suites)
	s.mu.Unlock()
	if suites != 0 {
		t.Errorf("%d resident suites after only rejected submissions", suites)
	}
	if got := scrapeCounter(t, ts.URL, `latteccd_jobs_rejected_total{reason="invalid"}`); got != uint64(len(bad)) {
		t.Errorf("rejected invalid = %d, want %d", got, len(bad))
	}
}

// TestSmallL1AdmitsPoliciesThatFit: a 1 KiB L1 (2 sets) is a machine
// sim.Config.Validate accepts, but it cannot host the 12 dedicated sets
// of the adaptive policies. A job naming one answers 400 and counts as
// invalid, even inside a batch; a static policy and Kernel-OPT on that
// L1 are admitted and finish.
func TestSmallL1AdmitsPoliciesThatFit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	l1 := 1024
	small := &ConfigOverrides{L1SizeBytes: &l1}
	bad := []SubmitRequest{
		{Workload: "BO", Policy: "LATTE-CC", Config: small},
		{Workload: "BO", Policy: "LATTE-CC-BDI-BPC", Config: small},
		{Workload: "BO", Policy: "Adaptive-Hit-Count", Config: small},
		{Workload: "BO", Policy: "Adaptive-CMP", Config: small},
		{Runs: []RunSpec{{Workload: "BO", Policy: "Uncompressed"}, {Workload: "BO", Policy: "LATTE-CC"}}, Config: small},
	}
	for _, req := range bad {
		resp, body := post(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "dedicated sets") {
			t.Errorf("%+v: status %d, body %s", req.Runs, resp.StatusCode, body)
		}
	}
	if got := scrapeCounter(t, ts.URL, `latteccd_jobs_rejected_total{reason="invalid"}`); got != uint64(len(bad)) {
		t.Errorf("rejected invalid = %d, want %d", got, len(bad))
	}
	for _, p := range []string{"Static-BDI", "Kernel-OPT"} {
		sr := submit(t, ts.URL, SubmitRequest{Workload: "BO", Policy: p, Config: small})
		if st := waitJob(t, ts.URL, sr.ID); st.Status != string(stateDone) {
			t.Errorf("%s on a 1 KiB L1: status %s, error %q", p, st.Status, st.Error)
		}
	}
}

// TestServeWarmOverridesKeepFingerprints: the overrides the serve-warm
// benchmark sends (L1 16/32 KiB, MSHRs 32/16, max_cycles 50M + salt) are
// accepted on the tiny machine and key the fingerprints they always did.
func TestServeWarmOverridesKeepFingerprints(t *testing.T) {
	base := sim.ScaledConfig(false, true)
	for _, tc := range []struct {
		l1, mshrs int
		salt      uint64
		want      uint64
	}{
		{16384, 32, 0, 0xda317fcafe74962a},
		{16384, 32, 1, 0x777aef942bc30451},
		{16384, 16, 2, 0x4b9b60020dcfdee4},
		{32768, 32, 0, 0x111aa871481a4fea},
		{32768, 16, 1, 0x861e37dc1eb15dc1},
		{32768, 16, 2, 0x578d37a455b5c724},
	} {
		maxCycles := base.MaxCycles + tc.salt
		cfg, err := (&ConfigOverrides{L1SizeBytes: &tc.l1, MSHRs: &tc.mshrs, MaxCycles: &maxCycles}).Apply(base)
		if err != nil {
			t.Fatalf("l1 %d, mshrs %d, salt %d: %v", tc.l1, tc.mshrs, tc.salt, err)
		}
		if got := cfg.Fingerprint(); got != tc.want {
			t.Errorf("l1 %d, mshrs %d, salt %d: fingerprint %#016x, want %#016x", tc.l1, tc.mshrs, tc.salt, got, tc.want)
		}
	}
}
