package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"lattecc/internal/fault"
	"lattecc/internal/harness"
	"lattecc/internal/invariant"
)

// TestSSEClientKilledMidReplay: an events subscriber that disappears
// mid-stream must not disturb the job it was watching — the run
// completes, a later subscriber still replays the full history, and
// /metrics stays serviceable.
func TestSSEClientKilledMidReplay(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 1,
		startHook: func(j *Job) {
			select {
			case started <- j:
				<-release
			default:
			}
		},
	})

	sr := submit(t, ts.URL, SubmitRequest{Runs: []RunSpec{
		{Workload: "BO", Policy: "Uncompressed"},
		{Workload: "BO", Policy: "Static-BDI"},
	}})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}

	// Open the SSE stream while the job is held mid-execution, read the
	// first frame of the replay, then kill the client.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/runs/"+sr.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	gotFrame := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			gotFrame = true
			break
		}
	}
	if !gotFrame {
		t.Fatal("no SSE frame before kill")
	}
	cancel()
	resp.Body.Close()

	// The abandoned stream must not wedge the run.
	close(release)
	st := waitJob(t, ts.URL, sr.ID)
	if st.Status != string(stateDone) {
		t.Fatalf("job after SSE kill: %s (%s)", st.Status, st.Error)
	}
	if len(st.Results) != 2 {
		t.Fatalf("job returned %d results, want 2", len(st.Results))
	}

	// A fresh subscriber replays the complete history.
	resp2, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var types []string
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		if strings.HasPrefix(sc2.Text(), "event: ") {
			types = append(types, strings.TrimPrefix(sc2.Text(), "event: "))
		}
	}
	want := "queued,running,run,run,done"
	if strings.Join(types, ",") != want {
		t.Fatalf("replay after SSE kill: %v, want %s", types, want)
	}

	// Metrics endpoint stays consistent.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mresp.StatusCode)
	}
	var buf strings.Builder
	sc3 := bufio.NewScanner(mresp.Body)
	for sc3.Scan() {
		buf.WriteString(sc3.Text() + "\n")
	}
	if !strings.Contains(buf.String(), "latteccd_jobs_accepted_total 1") {
		t.Errorf("metrics do not account the accepted job:\n%s", buf.String())
	}
}

// TestQueueOverflowFaultInjected: the injected queue-overflow fault must
// take exactly the real overflow path — 429 with Retry-After, no job
// leaked into the registry — and the daemon must accept the retry once
// the fault clears.
func TestQueueOverflowFaultInjected(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{})

	one := SubmitRequest{Workload: "BO", Policy: "Uncompressed"}
	fault.Arm("server.queue-overflow", 1)
	resp, body := post(t, ts.URL, one)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("faulted submit: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	s.mu.Lock()
	leaked := len(s.jobs)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d jobs leaked by the rejected submission", leaked)
	}
	if got := s.metrics.rejectedFull.Load(); got != 1 {
		t.Errorf("rejectedFull = %d, want 1", got)
	}

	// One-shot fault consumed: the retry goes through and completes.
	sr := submit(t, ts.URL, one)
	if st := waitJob(t, ts.URL, sr.ID); st.Status != string(stateDone) {
		t.Fatalf("retry after fault: %s (%s)", st.Status, st.Error)
	}
}

// TestCancelRunFaultInjected: a context cancelled at the top of a run
// must fail that job gracefully — failed state with a deadline error, no
// result cache corruption — and leave the daemon ready for the
// resubmission, which must produce the canonical StateHash.
func TestCancelRunFaultInjected(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})

	one := SubmitRequest{Workload: "BO", Policy: "Static-BDI"}
	fault.Arm("server.cancel-run", 1)
	sr := submit(t, ts.URL, one)
	st := waitJob(t, ts.URL, sr.ID)
	if st.Status != string(stateFailed) {
		t.Fatalf("faulted job: %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("faulted job error %q, want a deadline failure", st.Error)
	}

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon not ready after faulted job: %v %v", err, resp)
	}

	sr2 := submit(t, ts.URL, one)
	st2 := waitJob(t, ts.URL, sr2.ID)
	if st2.Status != string(stateDone) || len(st2.Results) != 1 {
		t.Fatalf("resubmission: %s (%s)", st2.Status, st2.Error)
	}
	direct := harness.NewSuite(tinyConfig())
	want := direct.MustRun("BO", harness.StaticBDI, harness.Variant{})
	if wantHash := fmt.Sprintf("0x%016x", want.StateHash()); st2.Results[0].StateHash != wantHash {
		t.Errorf("resubmitted state hash %s, want %s", st2.Results[0].StateHash, wantHash)
	}
}

// TestCodecFaultFailsJobNotDaemon: an injected codec decode error under
// paranoid invariants panics inside the simulation; the harness converts
// it to a job failure, the daemon survives, and — because panic results
// are not cached — the resubmission simulates fresh and succeeds with
// the canonical result. The fault is armed unbounded because the
// harness legitimately retries a panicked run (panics are evicted from
// the single-flight cache): a one-shot fault would be absorbed by the
// retry and the job would self-heal, which is its own graceful-
// degradation property but not the one under test here.
func TestCodecFaultFailsJobNotDaemon(t *testing.T) {
	prev := invariant.SetActive(true)
	defer invariant.SetActive(prev)
	defer fault.Reset()
	_, ts := newTestServer(t, Config{})

	one := SubmitRequest{Workload: "BO", Policy: "Static-BDI"}
	fault.Arm("codec.decode", -1)
	sr := submit(t, ts.URL, one)
	st := waitJob(t, ts.URL, sr.ID)
	if st.Status != string(stateFailed) {
		t.Fatalf("poisoned job: %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "panicked") {
		t.Fatalf("poisoned job error %q, want recovered panic", st.Error)
	}

	fault.Disarm("codec.decode")
	sr2 := submit(t, ts.URL, one)
	st2 := waitJob(t, ts.URL, sr2.ID)
	if st2.Status != string(stateDone) || len(st2.Results) != 1 {
		t.Fatalf("resubmission after poisoned run: %s (%s)", st2.Status, st2.Error)
	}
	direct := harness.NewSuite(tinyConfig())
	want := direct.MustRun("BO", harness.StaticBDI, harness.Variant{})
	if wantHash := fmt.Sprintf("0x%016x", want.StateHash()); st2.Results[0].StateHash != wantHash {
		t.Errorf("state hash %s after recovery, want %s", st2.Results[0].StateHash, wantHash)
	}
}
