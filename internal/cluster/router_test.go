package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lattecc/internal/harness"
	"lattecc/internal/server"
	"lattecc/internal/sim"
)

func tinyConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxInstructions = 40_000
	return cfg
}

// startWorker boots a real latteccd worker (simulator and all) behind
// an httptest frontend.
func startWorker(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(server.Config{
		BaseConfig:      tinyConfig(),
		Workers:         2,
		DefaultDeadline: time.Minute,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	return s, ts
}

// startRouter boots a Router behind an httptest frontend with test-fast
// poll/probe cadences unless the caller set its own.
func startRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.BaseConfig.NumSMs == 0 {
		cfg.BaseConfig = tinyConfig()
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

// registerWorker joins a worker to the router through the public API.
func registerWorker(t *testing.T, routerURL, workerURL string) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{URL: workerURL})
	resp, err := http.Post(routerURL+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("register %s: status %d: %s", workerURL, resp.StatusCode, msg)
	}
}

// submitCluster posts one submission to the router and requires 202.
func submitCluster(t *testing.T, routerURL string, req server.SubmitRequest) JobView {
	t.Helper()
	resp, body := postCluster(t, routerURL, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("submit response: %v (%s)", err, body)
	}
	return v
}

func postCluster(t *testing.T, routerURL string, req server.SubmitRequest) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/runs", "application/json", bytes.NewReader(buf))
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

// waitCluster polls a cluster job to a terminal state.
func waitCluster(t *testing.T, routerURL, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(routerURL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == "done" || v.Status == "failed" {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cluster job %s did not finish", id)
	return JobView{}
}

// TestClusterStateHashParity is the cluster determinism contract: a
// batch routed through the router to real workers reports exactly the
// StateHash a direct Suite.MustRun computes, and a second submission of
// the same machine config lands on the same worker (fingerprint
// affinity keeps the resident suite hot).
func TestClusterStateHashParity(t *testing.T) {
	_, w1 := startWorker(t)
	_, w2 := startWorker(t)
	_, rts := startRouter(t, Config{Policy: "fingerprint"})
	registerWorker(t, rts.URL, w1.URL)
	registerWorker(t, rts.URL, w2.URL)

	runs := []server.RunSpec{
		{Workload: "BO", Policy: "Uncompressed"},
		{Workload: "SS", Policy: "LATTE-CC"},
		{Workload: "BO", Policy: "LATTE-CC"},
	}
	v := submitCluster(t, rts.URL, server.SubmitRequest{Runs: runs})
	if v.Runs != len(runs) {
		t.Fatalf("accepted %d runs, want %d", v.Runs, len(runs))
	}
	if v.Worker == "" || v.Fingerprint == "" {
		t.Fatalf("placement not reported: %+v", v)
	}
	final := waitCluster(t, rts.URL, v.ID)
	if final.Status != "done" {
		t.Fatalf("cluster job failed: %s", final.Error)
	}
	if len(final.Results) != len(runs) {
		t.Fatalf("%d results, want %d", len(final.Results), len(runs))
	}

	direct := harness.NewSuite(tinyConfig())
	for _, r := range final.Results {
		res := direct.MustRun(r.Workload, harness.Policy(r.Policy), harness.Variant{})
		want := fmt.Sprintf("0x%016x", res.StateHash())
		if r.StateHash != want {
			t.Errorf("%s/%s: cluster hash %s, direct %s", r.Workload, r.Policy, r.StateHash, want)
		}
	}

	// Same machine config -> same fingerprint -> same worker.
	v2 := submitCluster(t, rts.URL, server.SubmitRequest{Runs: runs[:1]})
	if v2.Fingerprint != v.Fingerprint {
		t.Fatalf("fingerprint drifted between identical configs: %s vs %s", v2.Fingerprint, v.Fingerprint)
	}
	if v2.Worker != v.Worker {
		t.Fatalf("affinity broken: same fingerprint placed on %s then %s", v.Worker, v2.Worker)
	}
	if got := waitCluster(t, rts.URL, v2.ID); got.Status != "done" {
		t.Fatalf("second job failed: %s", got.Error)
	}
}

// TestClusterRetryOnWorkerDeath kills a worker that holds a running job
// and requires the router to replay the job on the survivor with a
// bit-identical result — the ISSUE's retry-on-another-node guarantee.
func TestClusterRetryOnWorkerDeath(t *testing.T) {
	_, w1 := startWorker(t)
	_, w2 := startWorker(t)
	rt, rts := startRouter(t, Config{Policy: "least-loaded", DeadAfter: 1, RetryLimit: 3})
	registerWorker(t, rts.URL, w1.URL)
	registerWorker(t, rts.URL, w2.URL)

	// A deliberately long run (10x the tiny instruction budget) so the
	// victim worker is guaranteed to still hold it when killed.
	big := uint64(400_000)
	v := submitCluster(t, rts.URL, server.SubmitRequest{
		Workload: "BO",
		Policy:   "LATTE-CC",
		Config:   &server.ConfigOverrides{MaxInstructions: &big},
	})
	if v.Worker == "" {
		t.Fatal("no placement reported")
	}
	victim := v.Worker
	for _, ts := range []*httptest.Server{w1, w2} {
		if ts.URL == victim {
			ts.CloseClientConnections()
			ts.Close()
		}
	}

	// More work arrives while the fleet is degraded; it must route
	// around the corpse.
	after := submitCluster(t, rts.URL, server.SubmitRequest{Runs: []server.RunSpec{
		{Workload: "SS", Policy: "Uncompressed"},
	}})

	final := waitCluster(t, rts.URL, v.ID)
	if final.Status != "done" {
		t.Fatalf("job lost to worker death did not recover: %s", final.Error)
	}
	if final.Retries < 1 {
		t.Fatalf("job completed without a retry despite its worker dying (worker %s)", final.Worker)
	}
	if final.Worker == victim {
		t.Fatalf("job claims to have finished on the dead worker %s", victim)
	}

	bigCfg := tinyConfig()
	bigCfg.MaxInstructions = big
	res := harness.NewSuite(bigCfg).MustRun("BO", harness.LatteCC, harness.Variant{})
	if want := fmt.Sprintf("0x%016x", res.StateHash()); final.Results[0].StateHash != want {
		t.Errorf("retried run hash %s, direct %s — retry changed the answer", final.Results[0].StateHash, want)
	}

	if got := waitCluster(t, rts.URL, after.ID); got.Status != "done" {
		t.Fatalf("post-death submission failed: %s", got.Error)
	}

	// The dead worker must have been evicted.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Registry().Evictions() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rt.Registry().Evictions() == 0 {
		t.Fatal("dead worker never evicted")
	}

	// Graceful drain with everything terminal returns promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// --- stub-worker tests: protocol behavior without a simulator ---------

type stubMode int

const (
	stubDone stubMode = iota // jobs complete immediately
	stubHold                 // jobs stay running forever
	stubLose                 // worker "restarted": 404 for every job
)

// stubWorker speaks just enough of the worker wire protocol to exercise
// the router's placement, retry, admission, and metrics paths without a
// simulator behind it.
type stubWorker struct {
	ts *httptest.Server

	mu       sync.Mutex
	mode     stubMode
	accepted int
	metrics  string
}

func newStubWorker(t *testing.T, mode stubMode) *stubWorker {
	t.Helper()
	s := &stubWorker{mode: mode}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.accepted++
		id := fmt.Sprintf("sj-%03d", s.accepted)
		s.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.SubmitResponse{ID: id, Status: "queued", Runs: 1})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st := server.JobStatus{ID: r.PathValue("id"), Runs: 1}
		switch s.getMode() {
		case stubLose:
			http.Error(w, "no such job", http.StatusNotFound)
			return
		case stubHold:
			st.Status = "running"
		default:
			st.Status = "done"
			st.Results = []server.RunResult{{
				Workload: "BO", Policy: "LATTE-CC", StateHash: "0x00000000deadbeef",
			}}
		}
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: done\ndata: {\"id\":%q,\"status\":\"done\"}\n\n", r.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/load", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(server.LoadStatus{})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		body := s.metrics
		s.mu.Unlock()
		fmt.Fprint(w, body)
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubWorker) getMode() stubMode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

func (s *stubWorker) setMetrics(body string) {
	s.mu.Lock()
	s.metrics = body
	s.mu.Unlock()
}

// TestRouterRetryOnJobLost: a worker that answers but no longer knows
// the job (it restarted) triggers an immediate re-place on another
// worker, counted in Retries.
func TestRouterRetryOnJobLost(t *testing.T) {
	loser := newStubWorker(t, stubLose)
	runner := newStubWorker(t, stubDone)
	// A slow poll leaves ample time to register the second worker
	// between placement and the first (job-lost) status poll.
	rt, rts := startRouter(t, Config{Policy: "fingerprint", PollInterval: 150 * time.Millisecond})
	registerWorker(t, rts.URL, loser.ts.URL)

	v := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	if v.Worker != loser.ts.URL {
		t.Fatalf("job placed on %s, want the only worker %s", v.Worker, loser.ts.URL)
	}
	// The second worker joins after placement; the retry must find it.
	registerWorker(t, rts.URL, runner.ts.URL)

	final := waitCluster(t, rts.URL, v.ID)
	if final.Status != "done" {
		t.Fatalf("lost job did not recover: %s", final.Error)
	}
	if final.Retries < 1 || final.Worker != runner.ts.URL {
		t.Fatalf("expected retry onto %s, got worker=%s retries=%d", runner.ts.URL, final.Worker, final.Retries)
	}
	if rt.Inflight() != 0 {
		t.Fatalf("inflight=%d after terminal job", rt.Inflight())
	}
}

// TestRouterAdmissionControl: MaxInFlight overload answers 429 with
// Retry-After, and slots free when jobs finish.
func TestRouterAdmissionControl(t *testing.T) {
	holder := newStubWorker(t, stubHold)
	rt, rts := startRouter(t, Config{Policy: "fingerprint", MaxInFlight: 1})
	registerWorker(t, rts.URL, holder.ts.URL)

	v := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	resp, body := postCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload answered %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The held job completes once the worker reports done; the freed
	// slot admits the next submission.
	holder.mu.Lock()
	holder.mode = stubDone
	holder.mu.Unlock()
	if got := waitCluster(t, rts.URL, v.ID); got.Status != "done" {
		t.Fatalf("held job ended %s: %s", got.Status, got.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Inflight() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	v2 := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	if got := waitCluster(t, rts.URL, v2.ID); got.Status != "done" {
		t.Fatalf("post-overload job failed: %s", got.Error)
	}
}

// TestRouterDrain: Shutdown completes in-flight work, then rejects new
// submissions with 503 while /healthz stays up and /readyz flips.
func TestRouterDrain(t *testing.T) {
	wkr := newStubWorker(t, stubDone)
	rt, rts := startRouter(t, Config{Policy: "fingerprint"})
	registerWorker(t, rts.URL, wkr.ts.URL)

	v := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	if got := waitCluster(t, rts.URL, v.ID); got.Status != "done" {
		t.Fatalf("job failed: %s", got.Error)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain with no in-flight work: %v", err)
	}

	resp, _ := postCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit into drained router answered %d, want 503", resp.StatusCode)
	}
	if r, err := http.Get(rts.URL + "/readyz"); err != nil || r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %v %d", err, r.StatusCode)
	} else {
		r.Body.Close()
	}
	if r, err := http.Get(rts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %v %d", err, r.StatusCode)
	} else {
		r.Body.Close()
	}
	// Terminal job status stays queryable after drain.
	if got := waitCluster(t, rts.URL, v.ID); got.Status != "done" {
		t.Fatal("terminal status lost after drain")
	}
}

// TestRouterRejections: malformed bodies, unknown fields, empty
// submissions, and a workerless fleet are all rejected with the right
// status codes.
func TestRouterRejections(t *testing.T) {
	_, rts := startRouter(t, Config{})

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"garbage", "{nope", http.StatusBadRequest},
		{"unknown field", `{"wrkload":"BO"}`, http.StatusBadRequest},
		{"unknown override", `{"workload":"BO","policy":"LATTE-CC","config":{"sm_jobs":2}}`, http.StatusBadRequest},
		{"empty", `{}`, http.StatusBadRequest},
		{"bad override", `{"workload":"BO","policy":"LATTE-CC","config":{"num_sms":-4}}`, http.StatusBadRequest},
		{"no workers", `{"workload":"BO","policy":"LATTE-CC"}`, http.StatusServiceUnavailable},
	} {
		resp, err := http.Post(rts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if resp, err := http.Get(rts.URL + "/v1/runs/cjob-999999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Worker registration validates URLs.
	for _, bad := range []string{`{"url":"not-a-url"}`, `{"url":"ftp://x"}`, `{"url":""}`} {
		resp, err := http.Post(rts.URL+"/v1/workers", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRouterRegisterReportsNewness: a worker's first registration reads
// registered:true, its heartbeat re-registration registered:false, and
// only the first counts as a registration.
func TestRouterRegisterReportsNewness(t *testing.T) {
	// No probe runs during the test, so the unreachable URL stays live.
	_, rts := startRouter(t, Config{Policy: "fingerprint", HealthInterval: time.Hour})
	for i, want := range []bool{true, false} {
		resp, err := http.Post(rts.URL+"/v1/workers", "application/json", strings.NewReader(`{"url":"http://127.0.0.1:1"}`))
		if err != nil {
			t.Fatal(err)
		}
		var got RegisterResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Registered != want || got.Workers != 1 {
			t.Fatalf("registration %d: %+v, want registered=%v workers=1", i+1, got, want)
		}
	}
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "latteroute_workers_registered_total 1\n") {
		t.Fatalf("heartbeat counted as a registration:\n%s", page)
	}
}

// TestRouterRejectsUnbuildableOverrides: the router judges a
// submission's machine by the same SubmitRequest.Machine as latteccd, so
// every unbuildable override, and an L1 too small for LATTE-CC's
// dedicated sets, answers 400 here too, counts as invalid, and never
// reaches a worker; a static policy on that L1 is routed.
func TestRouterRejectsUnbuildableOverrides(t *testing.T) {
	wkr := newStubWorker(t, stubDone)
	rt, rts := startRouter(t, Config{Policy: "fingerprint"})
	registerWorker(t, rts.URL, wkr.ts.URL)

	m := sim.DefaultConfig().Mem
	bad := []string{
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
		`{"l1_size_bytes":1024}`, // 2 sets cannot host 12 dedicated sets
	}
	for _, ov := range bad {
		body := `{"workload":"BO","policy":"LATTE-CC","config":` + ov + `}`
		resp, err := http.Post(rts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", ov, resp.StatusCode)
		}
	}
	if got := rt.metrics.rejectedInvalid.Load(); got != uint64(len(bad)) {
		t.Errorf("rejected invalid = %d, want %d", got, len(bad))
	}
	wkr.mu.Lock()
	placed := wkr.accepted
	wkr.mu.Unlock()
	if placed != 0 {
		t.Errorf("%d unbuildable submissions reached the worker", placed)
	}

	resp, err := http.Post(rts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"BO","policy":"Static-BDI","config":{"l1_size_bytes":1024}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("Static-BDI on a 1 KiB L1: status %d, want 202", resp.StatusCode)
	}
}

// TestRouterMetricsAggregation: the router's /metrics carries its own
// counters plus the per-worker scrapes summed by series.
func TestRouterMetricsAggregation(t *testing.T) {
	a := newStubWorker(t, stubDone)
	a.setMetrics("# HELP latteccd_jobs_accepted_total jobs\n# TYPE latteccd_jobs_accepted_total counter\nlatteccd_jobs_accepted_total 2\n")
	b := newStubWorker(t, stubDone)
	b.setMetrics("latteccd_jobs_accepted_total 3\n")
	_, rts := startRouter(t, Config{Policy: "least-loaded"})
	registerWorker(t, rts.URL, a.ts.URL)
	registerWorker(t, rts.URL, b.ts.URL)

	v := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	if got := waitCluster(t, rts.URL, v.ID); got.Status != "done" {
		t.Fatalf("job failed: %s", got.Error)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	for _, want := range []string{
		"latteroute_jobs_routed_total 1",
		"latteroute_jobs_completed_total 1",
		"latteroute_workers_registered_total 2",
		`latteroute_workers{state="alive"} 2`,
		"latteccd_jobs_accepted_total 5", // 2 + 3, summed across workers
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestRouterEventsProxy: the SSE endpoint re-proxies the owning
// worker's stream to the client.
func TestRouterEventsProxy(t *testing.T) {
	wkr := newStubWorker(t, stubDone)
	_, rts := startRouter(t, Config{Policy: "fingerprint"})
	registerWorker(t, rts.URL, wkr.ts.URL)

	v := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	resp, err := http.Get(rts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "event: done") {
		t.Fatalf("proxied stream missing terminal frame:\n%s", body)
	}
}

// TestRouterAssignedCountedOnce: a lost job whose re-place fails gives
// its worker's assigned count back exactly once, so the job the worker
// still holds keeps counting. A long HealthInterval keeps probes, which
// reset the count, out of the way.
func TestRouterAssignedCountedOnce(t *testing.T) {
	// One worker: its first job runs forever, every later one is lost.
	var accepted atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, _ *http.Request) {
		id := fmt.Sprintf("sj-%03d", accepted.Add(1))
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.SubmitResponse{ID: id, Status: "queued", Runs: 1})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "sj-001" {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "sj-001", Status: "running", Runs: 1})
	})
	wkr := httptest.NewServer(mux)
	t.Cleanup(wkr.Close)

	rt, rts := startRouter(t, Config{Policy: "fingerprint", HealthInterval: time.Hour})
	registerWorker(t, rts.URL, wkr.URL)
	submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	lost := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "SS", Policy: "LATTE-CC"})
	if got := waitCluster(t, rts.URL, lost.ID); got.Status != "failed" {
		t.Fatalf("lost job with nowhere to go ended %s", got.Status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Inflight() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Inflight(); got != 1 {
		t.Fatalf("inflight=%d, want the held job only", got)
	}
	if got := rt.Registry().Snapshot()[0].Assigned; got != 1 {
		t.Fatalf("worker assigned=%d, want 1 for the held job", got)
	}
}

// TestRouterAdmissionRacesDrain fires concurrent submissions at
// Shutdown. Every 202 must name a job that is terminal once Shutdown
// returns, and every refusal must be a 503 counted as
// reason="draining".
func TestRouterAdmissionRacesDrain(t *testing.T) {
	wkr := newStubWorker(t, stubDone)
	rt, rts := startRouter(t, Config{Policy: "fingerprint"})
	registerWorker(t, rts.URL, wkr.ts.URL)

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
			resp, err := http.Post(rts.URL+"/v1/runs", "application/json",
				strings.NewReader(`{"workload":"BO","policy":"LATTE-CC"}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var v JobView
			if resp.StatusCode == http.StatusAccepted {
				if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
					errs <- err
				}
				ids[i] = v.ID
			}
		}(i)
	}
	<-answered // let some submissions land, then drain under the rest
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	refused := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			resp, err := http.Get(rts.URL + "/v1/runs/" + ids[i])
			if err != nil {
				t.Fatal(err)
			}
			var v JobView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v.Status != "done" && v.Status != "failed" {
				t.Errorf("admitted job %s is %q after the drain", ids[i], v.Status)
			}
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Errorf("submission %d answered %d, want 202 or 503", i, code)
		}
	}
	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf(`latteroute_jobs_rejected_total{reason="draining"} %d`+"\n", refused); !strings.Contains(string(page), want) {
		t.Errorf("metrics missing %q for the %d 503s", want, refused)
	}
	t.Logf("%d admitted, %d refused", n-refused, refused)
}

// TestFinishedJobKeepsNoBody: once a job's watcher has released it, the
// job table keeps its status but not the submission body, which only a
// re-placement of a live job reads.
func TestFinishedJobKeepsNoBody(t *testing.T) {
	wkr := newStubWorker(t, stubDone)
	rt, rts := startRouter(t, Config{Policy: "fingerprint"})
	registerWorker(t, rts.URL, wkr.ts.URL)

	v := submitCluster(t, rts.URL, server.SubmitRequest{Workload: "BO", Policy: "LATTE-CC"})
	if final := waitCluster(t, rts.URL, v.ID); final.Status != "done" {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Inflight() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Inflight(); got != 0 {
		t.Fatalf("inflight=%d after the job finished", got)
	}
	req := httptest.NewRequest("GET", "/v1/runs/"+v.ID, nil)
	req.SetPathValue("id", v.ID)
	j, ok := rt.jobs.Lookup(httptest.NewRecorder(), req)
	if !ok {
		t.Fatalf("job %s left the table", v.ID)
	}
	if j.body != nil {
		t.Errorf("finished job keeps a %d-byte body", len(j.body))
	}
}
