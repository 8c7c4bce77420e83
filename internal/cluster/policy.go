package cluster

import (
	"errors"
	"fmt"
)

// ErrNoWorkers is returned by every policy when no live, non-draining
// worker is available; the router maps it to 503.
var ErrNoWorkers = errors.New("cluster: no routable workers")

// Policy picks the worker for one job placement. fp is the job's
// machine-config fingerprint; exclude names a worker the job must not
// return to (the one a retry is fleeing; empty on first placement).
// Implementations must be safe for concurrent use and must never return
// a draining or excluded worker.
type Policy interface {
	Name() string
	Pick(fp uint64, reg *Registry, exclude string) (string, error)
}

// Policies lists the registered routing policy names, in the order the
// -policy flag documents them.
func Policies() []string {
	return []string{"fingerprint", "least-loaded"}
}

// PolicyByName builds the named policy.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "fingerprint", "fingerprint-affinity":
		return affinityPolicy{}, nil
	case "least-loaded":
		return leastLoadedPolicy{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q (have %v)", name, Policies())
}

// affinityPolicy consistent-hashes the machine-config fingerprint onto
// the worker ring: every job for the same machine config lands on the
// same worker, so that worker's resident Suite (and its single-flight
// result cache) stays hot. On owner death the key falls through to the
// ring successor — and only keys the dead worker owned move.
type affinityPolicy struct{}

func (affinityPolicy) Name() string { return "fingerprint" }

func (affinityPolicy) Pick(fp uint64, reg *Registry, exclude string) (string, error) {
	if url, ok := reg.PickAffinity(fp, exclude); ok {
		return url, nil
	}
	return "", ErrNoWorkers
}

// leastLoadedPolicy routes to the candidate with the fewest queued +
// running + optimistically-assigned jobs, breaking ties by URL so
// placement is deterministic for tests. It never considers draining or
// excluded workers.
type leastLoadedPolicy struct{}

func (leastLoadedPolicy) Name() string { return "least-loaded" }

func (leastLoadedPolicy) Pick(fp uint64, reg *Registry, exclude string) (string, error) {
	best := ""
	var bestLoad int64
	for _, w := range reg.Snapshot() {
		if w.Draining || w.URL == exclude {
			continue
		}
		if best == "" || w.Load() < bestLoad {
			best, bestLoad = w.URL, w.Load()
		}
	}
	if best == "" {
		return "", ErrNoWorkers
	}
	return best, nil
}
