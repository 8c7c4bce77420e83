package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeWorker serves just the worker endpoints the registry touches:
// /v1/load with a settable report. It lets registry and policy tests
// exercise the probe path without spinning up a simulator.
type fakeWorker struct {
	ts *httptest.Server

	mu   sync.Mutex
	load loadStatus
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	f := &fakeWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/load", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		st := f.load
		f.mu.Unlock()
		_ = json.NewEncoder(w).Encode(st)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeWorker) setLoad(st loadStatus) {
	f.mu.Lock()
	f.load = st
	f.mu.Unlock()
}

func (f *fakeWorker) url() string { return f.ts.URL }

// TestLeastLoadedNeverRoutesToDraining is the satellite-5 property: a
// worker that reported draining=true at its last probe receives no new
// placements from the least-loaded policy (nor from affinity), no
// matter how idle it looks.
func TestLeastLoadedNeverRoutesToDraining(t *testing.T) {
	busy := newFakeWorker(t)
	busy.setLoad(loadStatus{Queued: 50, Running: 2})
	idle := newFakeWorker(t)
	idle.setLoad(loadStatus{Draining: true}) // idle but leaving

	reg := NewRegistry(3, 0, busy.ts.Client())
	reg.Register(busy.url())
	reg.Register(idle.url())
	reg.ProbeAll(context.Background())

	policies := []Policy{leastLoadedPolicy{}, affinityPolicy{}}
	for _, pol := range policies {
		for fp := uint64(0); fp < 200; fp++ {
			got, err := pol.Pick(fp, reg, "")
			if err != nil {
				t.Fatalf("%s: pick failed with a routable worker present: %v", pol.Name(), err)
			}
			if got == idle.url() {
				t.Fatalf("%s routed fingerprint %#x to a draining worker", pol.Name(), fp)
			}
		}
	}

	// Once every worker is draining, every policy must refuse rather
	// than violate the drain.
	busy.setLoad(loadStatus{Draining: true})
	reg.ProbeAll(context.Background())
	for _, pol := range policies {
		if got, err := pol.Pick(1, reg, ""); err != ErrNoWorkers {
			t.Fatalf("%s: picked %q from an all-draining fleet (err=%v)", pol.Name(), got, err)
		}
	}
}

// TestLeastLoadedPrefersIdleAndHonoursAssigned: placement follows the
// probe-reported load, and the optimistic assigned counter shifts a
// burst off the previously idlest worker before the next probe.
func TestLeastLoadedPrefersIdleAndHonoursAssigned(t *testing.T) {
	w1 := newFakeWorker(t)
	w1.setLoad(loadStatus{Queued: 9})
	w2 := newFakeWorker(t)
	w2.setLoad(loadStatus{Queued: 0})

	reg := NewRegistry(3, 0, w1.ts.Client())
	reg.Register(w1.url())
	reg.Register(w2.url())
	reg.ProbeAll(context.Background())

	pol := leastLoadedPolicy{}
	for i := 0; i < 9; i++ {
		got, err := pol.Pick(0, reg, "")
		if err != nil {
			t.Fatal(err)
		}
		if got != w2.url() {
			t.Fatalf("placement %d went to the busier worker", i)
		}
		reg.NoteAssigned(got, 1)
	}
	// w2 now carries 9 assigned vs w1's 9 queued; the tie breaks by URL
	// but one more assignment must tip the balance to w1.
	reg.NoteAssigned(w2.url(), 1)
	got, err := pol.Pick(0, reg, "")
	if err != nil {
		t.Fatal(err)
	}
	if got != w1.url() {
		t.Fatalf("assigned count not steering load: still routing to %s", got)
	}

	// A successful probe resets the optimistic count: the report now
	// covers reality.
	reg.ProbeAll(context.Background())
	for _, w := range reg.Snapshot() {
		if w.Assigned != 0 {
			t.Fatalf("probe did not reset assigned for %s: %d", w.URL, w.Assigned)
		}
	}
}

// TestRegistryEviction: deadAfter consecutive failures (probe or
// data-path) evict the worker and count it; a returning worker simply
// re-registers.
func TestRegistryEviction(t *testing.T) {
	reg := NewRegistry(3, 0, http.DefaultClient)
	reg.Register("http://w1")
	reg.Register("http://w2")

	if reg.ReportFailure("http://w1") || reg.ReportFailure("http://w1") {
		t.Fatal("evicted before deadAfter failures")
	}
	if !reg.ReportFailure("http://w1") {
		t.Fatal("third failure did not evict at deadAfter=3")
	}
	if got := reg.Evictions(); got != 1 {
		t.Fatalf("evictions=%d, want 1", got)
	}
	if reg.Routable("http://w1") {
		t.Fatal("evicted worker still routable")
	}
	if _, ok := reg.PickAffinity(7, ""); !ok {
		t.Fatal("survivor not reachable through the ring after eviction")
	}

	// Graceful deregistration is not an eviction.
	reg.Deregister("http://w2")
	if got := reg.Evictions(); got != 1 {
		t.Fatalf("deregister counted as eviction: %d", got)
	}

	// The dead worker comes back: plain re-registration, clean slate.
	if !reg.Register("http://w1") {
		t.Fatal("returning worker not accepted as new")
	}
	if !reg.Routable("http://w1") {
		t.Fatal("re-registered worker not routable")
	}
}

// TestRegistryConcurrentRegisterRouteEvict is the satellite-5 -race
// test: registration, routing picks through every policy, failure
// reporting, probing, and snapshots all interleave freely without a
// data race or a torn ring.
func TestRegistryConcurrentRegisterRouteEvict(t *testing.T) {
	workers := make([]*fakeWorker, 4)
	for i := range workers {
		workers[i] = newFakeWorker(t)
	}
	reg := NewRegistry(2, 16, workers[0].ts.Client())
	// One worker is always present so Pick has a live target throughout.
	anchor := newFakeWorker(t)
	reg.Register(anchor.url())

	var wg sync.WaitGroup
	var stop atomic.Bool
	const loops = 300

	wg.Add(1)
	go func() { // churn: register/deregister/evict the rotating fleet
		defer wg.Done()
		for i := 0; i < loops; i++ {
			w := workers[i%len(workers)]
			reg.Register(w.url())
			switch i % 3 {
			case 0:
				reg.Deregister(w.url())
			case 1:
				reg.Evict(w.url())
			case 2:
				reg.ReportFailure(w.url())
			}
		}
		stop.Store(true)
	}()

	pols := []Policy{affinityPolicy{}, leastLoadedPolicy{}}
	for g := range pols {
		wg.Add(1)
		go func(g int) { // route continuously while the fleet churns
			defer wg.Done()
			pol := pols[g]
			for i := 0; !stop.Load(); i++ {
				url, err := pol.Pick(uint64(i), reg, "")
				if err == nil && url == "" {
					t.Error("policy returned empty url without error")
					return
				}
				reg.NoteAssigned(url, 1)
				reg.NoteAssigned(url, -1)
			}
		}(g)
	}

	wg.Add(1)
	go func() { // observe
		defer wg.Done()
		for !stop.Load() {
			for _, w := range reg.Snapshot() {
				_ = w.Load()
			}
			reg.ProbeAll(context.Background())
		}
	}()

	wg.Wait()

	if _, ok := reg.PickAffinity(1, ""); !ok {
		t.Fatal("anchor worker lost during churn")
	}
}

// TestPolicyExclude: every policy honours the exclude argument — the
// worker a retry is fleeing must not be picked even if it is the only
// ring owner for the fingerprint.
func TestPolicyExclude(t *testing.T) {
	reg := NewRegistry(3, 0, http.DefaultClient)
	reg.Register("http://a")
	reg.Register("http://b")
	for _, pol := range []Policy{affinityPolicy{}, leastLoadedPolicy{}} {
		for fp := uint64(0); fp < 50; fp++ {
			got, err := pol.Pick(fp, reg, "http://a")
			if err != nil || got != "http://b" {
				t.Fatalf("%s: excluded worker picked (got %q, err %v)", pol.Name(), got, err)
			}
		}
	}
	// Excluding the only worker leaves nothing.
	reg.Deregister("http://b")
	for _, pol := range []Policy{affinityPolicy{}, leastLoadedPolicy{}} {
		if _, err := pol.Pick(1, reg, "http://a"); err != ErrNoWorkers {
			t.Fatalf("%s: pick with only the excluded worker returned %v", pol.Name(), err)
		}
	}
}

// TestPolicyByName covers the flag surface: every documented name
// resolves, the affinity alias works, junk is rejected.
func TestPolicyByName(t *testing.T) {
	for _, name := range Policies() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("documented policy %q not constructible: %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("policy %q has empty name", name)
		}
	}
	if p, err := PolicyByName("fingerprint-affinity"); err != nil || p.Name() != "fingerprint" {
		t.Fatalf("affinity alias broken: %v", err)
	}
	if _, err := PolicyByName("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
