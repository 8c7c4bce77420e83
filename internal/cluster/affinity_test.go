package cluster

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"lattecc/internal/server"
)

// affinityKeys synthesises a deterministic population of
// fingerprint-like keys: FNV-hashed so they spread the way real
// machine-config fingerprints do.
func affinityKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = fnv1a(fmt.Sprintf("key-%d", i))
	}
	return keys
}

func registryWith(urls ...string) *Registry {
	reg := NewRegistry(3, http.DefaultClient)
	for _, u := range urls {
		reg.Register(u)
	}
	return reg
}

// owners maps every key to its affinity owner.
func owners(t *testing.T, reg *Registry, keys []uint64) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string, len(keys))
	for _, k := range keys {
		url, ok := reg.PickAffinity(k, "")
		if !ok {
			t.Fatal("PickAffinity failed on a non-empty registry")
		}
		out[k] = url
	}
	return out
}

// requireSame fails unless every key still maps to its owner in want.
func requireSame(t *testing.T, reg *Registry, want map[uint64]string, what string) {
	t.Helper()
	for k, w := range want {
		if got, _ := reg.PickAffinity(k, ""); got != w {
			t.Fatalf("%s: key %#x maps to %s, want %s", what, k, got, w)
		}
	}
}

// TestAffinityDeterministic pins the core property everything else
// leans on: the same fleet maps the same key to the same worker, every
// time and in any build, whatever order the workers registered in.
func TestAffinityDeterministic(t *testing.T) {
	keys := affinityKeys(500)
	a := owners(t, registryWith("http://w1", "http://w2", "http://w3"), keys)
	requireSame(t, registryWith("http://w3", "http://w1", "http://w2"), a, "reversed registration")
	requireSame(t, registryWith("http://w1", "http://w2", "http://w3"), a, "second registry")
}

// TestAffinityJoinMovesFewKeys: adding one worker to N steals only
// ~1/(N+1) of the key space, every moved key moves TO the new worker,
// never between old ones, and its leave restores the old assignment.
func TestAffinityJoinMovesFewKeys(t *testing.T) {
	const nKeys = 2000
	keys := affinityKeys(nKeys)
	reg := registryWith("http://w1", "http://w2", "http://w3", "http://w4")
	before := owners(t, reg, keys)

	reg.Register("http://w5")
	moved := 0
	for k, was := range owners(t, reg, keys) {
		if was != before[k] {
			moved++
			if was != "http://w5" {
				t.Fatalf("key %#x moved between old workers (%s -> %s) on join", k, before[k], was)
			}
		}
	}
	// Expect ~1/5 of keys to move; allow generous slack for hash
	// variance but fail on a rebalance-the-world bug (>40%) or a
	// nothing-moved bug (<5%).
	if lo, hi := nKeys*5/100, nKeys*40/100; moved < lo || moved > hi {
		t.Fatalf("join moved %d/%d keys, want roughly 1/5 (accepted %d..%d)", moved, nKeys, lo, hi)
	}

	reg.Deregister("http://w5")
	requireSame(t, reg, before, "after the joiner left")
}

// TestAffinityLeaveOnlyMovesOwnedKeys: a worker leaving, gracefully or
// by eviction, reassigns only the keys it owned, and its return
// restores the old assignment exactly.
func TestAffinityLeaveOnlyMovesOwnedKeys(t *testing.T) {
	keys := affinityKeys(2000)
	leaves := map[string]func(*Registry, string){
		"deregister": (*Registry).Deregister,
		"eviction": func(reg *Registry, url string) {
			for !reg.ReportFailure(url) {
			}
		},
	}
	for name, leave := range leaves {
		reg := registryWith("http://w1", "http://w2", "http://w3", "http://w4")
		before := owners(t, reg, keys)
		leave(reg, "http://w2")
		for k, now := range owners(t, reg, keys) {
			if before[k] == "http://w2" {
				if now == "http://w2" {
					t.Fatalf("%s: key %#x still assigned to the departed worker", name, k)
				}
			} else if now != before[k] {
				t.Fatalf("%s: key %#x moved (%s -> %s) though its owner stayed", name, k, before[k], now)
			}
		}
		reg.Register("http://w2")
		requireSame(t, reg, before, name+" then re-register")
	}
}

// TestAffinityBalance: no worker owns more than 2x its fair share of a
// large key population, or less than a quarter of it.
func TestAffinityBalance(t *testing.T) {
	keys := affinityKeys(4000)
	nodes := []string{"http://w1", "http://w2", "http://w3", "http://w4"}
	counts := map[string]int{}
	for _, url := range owners(t, registryWith(nodes...), keys) {
		counts[url]++
	}
	fair := len(keys) / len(nodes)
	for _, n := range nodes {
		if c := counts[n]; c > 2*fair || c < fair/4 {
			t.Errorf("worker %s owns %d keys, fair share %d — scores not spreading", n, c, fair)
		}
	}
}

// TestAffinityFailover: a key whose owner is excluded (the worker a
// retry is fleeing) or draining goes where it would go if the owner
// were not in the fleet at all, so fail-over keeps placement stable.
func TestAffinityFailover(t *testing.T) {
	fakes := []*fakeWorker{newFakeWorker(t), newFakeWorker(t), newFakeWorker(t)}
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		urls[i] = f.url()
	}
	reg := NewRegistry(3, fakes[0].ts.Client())
	for _, u := range urls {
		reg.Register(u)
	}
	keys := affinityKeys(300)
	before := owners(t, reg, keys)

	for i, f := range fakes {
		var rest []string
		for j, u := range urls {
			if j != i {
				rest = append(rest, u)
			}
		}
		without := owners(t, registryWith(rest...), keys)

		f.setLoad(server.LoadStatus{Draining: true})
		reg.ProbeAll(context.Background())
		for _, k := range keys {
			if got, _ := reg.PickAffinity(k, urls[i]); got != without[k] {
				t.Fatalf("key %#x excluding %s: got %s, want %s", k, urls[i], got, without[k])
			}
			if got, _ := reg.PickAffinity(k, ""); got != without[k] {
				t.Fatalf("key %#x with %s draining: got %s, want %s", k, urls[i], got, without[k])
			}
		}
		f.setLoad(server.LoadStatus{})
		reg.ProbeAll(context.Background())
		requireSame(t, reg, before, "after the drain ended")
	}
}

// TestAffinityEdgeCases: empty registry, idempotent heartbeat
// re-registration, single worker, and a stranger's deregistration.
func TestAffinityEdgeCases(t *testing.T) {
	reg := registryWith()
	if _, ok := reg.PickAffinity(42, ""); ok {
		t.Fatal("PickAffinity on an empty registry claimed success")
	}
	if !reg.Register("http://w1") || reg.Register("http://w1") {
		t.Fatal("heartbeat re-registration not idempotent")
	}
	if n := len(reg.Snapshot()); n != 1 {
		t.Fatalf("double register produced %d workers", n)
	}
	if url, ok := reg.PickAffinity(7, ""); !ok || url != "http://w1" {
		t.Fatalf("single-worker registry routed to %q", url)
	}
	if _, ok := reg.PickAffinity(7, "http://w1"); ok {
		t.Fatal("PickAffinity returned the only, excluded worker")
	}
	reg.Deregister("http://nope")
	if n := len(reg.Snapshot()); n != 1 {
		t.Fatalf("registry lost workers deregistering a stranger: %d", n)
	}
	reg.Deregister("http://w1")
	if _, ok := reg.PickAffinity(7, ""); ok {
		t.Fatal("PickAffinity succeeded after the last worker left")
	}
}

// TestPickAffinityAllocatesNothing: a placement reads the worker table
// in place.
func TestPickAffinityAllocatesNothing(t *testing.T) {
	reg := registryWith("http://w1", "http://w2", "http://w3", "http://w4")
	fp := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		fp++
		reg.PickAffinity(fp, "http://w2")
	}); n != 0 {
		t.Fatalf("PickAffinity allocates %.1f times per call", n)
	}
}
