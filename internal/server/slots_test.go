package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"lattecc/internal/harness"
)

// load reads GET /v1/load.
func load(t *testing.T, base string) LoadStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/load")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ls LoadStatus
	if err := json.NewDecoder(resp.Body).Decode(&ls); err != nil {
		t.Fatal(err)
	}
	return ls
}

// statusOf reads one job's status without waiting for it to finish.
func statusOf(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Status
}

// TestAnsweredJobsPassAHeldSlot: with the daemon's only simulation slot
// taken, a job the resident suite answers and a job the store answers
// both finish, while a job that must simulate waits, counted as queued,
// until the slot comes back.
func TestAnsweredJobsPassAHeldSlot(t *testing.T) {
	dir := t.TempDir()
	pre := harness.NewSuite(tinyConfig())
	pre.Store = openStore(t, dir)
	pre.MustRun("SS", harness.Uncompressed, harness.Variant{})

	s, ts := newTestServer(t, Config{Workers: 1, RunJobs: 1, Store: openStore(t, dir)})
	bo := SubmitRequest{Workload: "BO", Policy: "Uncompressed"}
	if st := waitJob(t, ts.URL, submit(t, ts.URL, bo).ID); st.Status != string(stateDone) {
		t.Fatalf("warm-up job: %s (%s)", st.Status, st.Error)
	}

	s.slots <- struct{}{} // the only slot
	held := true
	defer func() {
		if held {
			<-s.slots
		}
	}()
	fresh := submit(t, ts.URL, SubmitRequest{Workload: "FW", Policy: "Uncompressed"})
	for _, c := range []struct {
		name   string
		req    SubmitRequest
		cached bool
	}{
		{"resident", bo, true},
		{"store", SubmitRequest{Workload: "SS", Policy: "Uncompressed"}, false},
	} {
		st := waitJob(t, ts.URL, submit(t, ts.URL, c.req).ID)
		if st.Status != string(stateDone) || len(st.Results) != 1 {
			t.Fatalf("%s job behind a held slot: %s (%s)", c.name, st.Status, st.Error)
		}
		if st.Results[0].Cached != c.cached {
			t.Errorf("%s job: cached=%v, want %v", c.name, st.Results[0].Cached, c.cached)
		}
	}
	if got := suiteCounters(s); got.store != 1 {
		t.Errorf("store hits %d, want 1", got.store)
	}

	waitFor(t, func() bool { return load(t, ts.URL).Queued == 1 })
	if got := statusOf(t, ts.URL, fresh.ID); got != string(stateRunning) {
		t.Fatalf("fresh job is %s while the only slot is held, want running", got)
	}
	<-s.slots
	held = false
	if st := waitJob(t, ts.URL, fresh.ID); st.Status != string(stateDone) {
		t.Fatalf("fresh job after the slot came back: %s (%s)", st.Status, st.Error)
	}
}

// TestKernelOptAtOneSlot: a cold Kernel-OPT run claims its three statics
// and simulates each at the daemon's one slot; a one-mode schedule is
// then served as a copy and a mixed one is simulated, again at that
// slot. The batch's statics follow it, so they are cache hits the test
// compares against. MKS is a three-kernel workload, given enough
// instructions to reach its second kernel and a schedule that mixes.
func TestKernelOptAtOneSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RunJobs: 1})
	mks := uint64(1_750_000)
	for _, c := range []struct {
		workload string
		cfg      *ConfigOverrides
		mixed    bool
	}{
		{"FW", nil, false},
		{"MKS", &ConfigOverrides{MaxInstructions: &mks}, true},
	} {
		req := SubmitRequest{Config: c.cfg, Runs: []RunSpec{
			{Workload: c.workload, Policy: "Kernel-OPT"},
			{Workload: c.workload, Policy: "Uncompressed"},
			{Workload: c.workload, Policy: "Static-BDI"},
			{Workload: c.workload, Policy: "Static-SC"},
		}}
		st := waitJob(t, ts.URL, submit(t, ts.URL, req).ID)
		if st.Status != string(stateDone) || len(st.Results) != 4 {
			t.Fatalf("%s Kernel-OPT at one slot: %s (%s)", c.workload, st.Status, st.Error)
		}
		copied := false
		for _, r := range st.Results[1:] {
			if !r.Cached {
				t.Errorf("%s/%s simulated again after Kernel-OPT ran it", r.Workload, r.Policy)
			}
			copied = copied || r.Cycles == st.Results[0].Cycles
		}
		if copied == c.mixed {
			t.Errorf("%s: Kernel-OPT at %d cycles, a static's copy: %v; want a mixed schedule: %v",
				c.workload, st.Results[0].Cycles, copied, c.mixed)
		}
	}
}

// TestSimulationsBoundedBySlots submits many cold jobs at once and
// samples every goroutine's stack while they run: no more than
// Workers×RunJobs of them are ever inside sim.(*Sim).Run.
func TestSimulationsBoundedBySlots(t *testing.T) {
	const workers, runJobs = 2, 1
	_, ts := newTestServer(t, Config{Workers: workers, RunJobs: runJobs})
	instructions := uint64(150_000)
	cfg := &ConfigOverrides{MaxInstructions: &instructions}

	var ids []string
	for _, w := range []string{"BO", "SS", "FW", "NW", "KM", "HW"} {
		ids = append(ids, submit(t, ts.URL, SubmitRequest{Config: cfg, Runs: []RunSpec{
			{Workload: w, Policy: "Uncompressed"},
			{Workload: w, Policy: "Static-BDI"},
		}}).ID)
	}

	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		buf := make([]byte, 4<<20)
		most := 0
		for {
			select {
			case <-stop:
				peak <- most
				return
			default:
			}
			n := runtime.Stack(buf, true)
			most = max(most, bytes.Count(buf[:n], []byte("lattecc/internal/sim.(*Sim).Run(")))
			time.Sleep(time.Millisecond)
		}
	}()
	for _, id := range ids {
		if st := waitJob(t, ts.URL, id); st.Status != string(stateDone) {
			t.Errorf("job %s: %s (%s)", id, st.Status, st.Error)
		}
	}
	close(stop)
	most := <-peak
	if most > workers*runJobs {
		t.Fatalf("%d simulations ran at once, want at most %d", most, workers*runJobs)
	}
	if most == 0 {
		t.Fatal("no sample caught a simulation in flight")
	}
	t.Logf("peak %d simulations in flight", most)
}

// TestLoadCountsAdmittedJobs pins /v1/load and /metrics: Queued counts
// the jobs with a run waiting for a slot, latteccd_queue_depth reads the
// same, and Queued+Running is every admitted, unfinished job.
func TestLoadCountsAdmittedJobs(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	s, ts := newTestServer(t, Config{
		Workers: 1,
		RunJobs: 1,
		startHook: func(j *Job) {
			if j.reqs[0].Workload == "NW" {
				<-release
			}
		},
	})
	s.slots <- struct{}{} // the only slot
	held := true
	defer func() {
		if held {
			<-s.slots
		}
	}()

	var ids []string
	for _, w := range []string{"NW", "BO", "SS", "FW"} {
		ids = append(ids, submit(t, ts.URL, SubmitRequest{Workload: w, Policy: "Uncompressed"}).ID)
	}
	check := func(queued, running int64) {
		t.Helper()
		waitFor(t, func() bool {
			ls := load(t, ts.URL)
			return ls.Queued == queued && ls.Running == running
		})
		if got := scrapeCounter(t, ts.URL, "latteccd_queue_depth"); got != uint64(queued) {
			t.Errorf("latteccd_queue_depth = %d, want %d", got, queued)
		}
		if got := int64(len(s.admitted)); got != queued+running {
			t.Errorf("%d admitted, unfinished jobs; load reports %d queued + %d running", got, queued, running)
		}
	}
	check(3, 1) // NW held before its batch, the rest waiting for the slot
	once.Do(func() { close(release) })
	check(4, 0)
	<-s.slots
	held = false
	for _, id := range ids {
		if st := waitJob(t, ts.URL, id); st.Status != string(stateDone) {
			t.Fatalf("job %s: %s (%s)", id, st.Status, st.Error)
		}
	}
	check(0, 0)
}
