package oracle

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestConformanceCorpus is the nightly-style long randomized corpus: a
// fresh base seed per invocation (logged for replay), many rounds of the
// full differential suite. Gated behind LATTECC_CONFORMANCE so ordinary
// `go test ./...` runs stay fast and deterministic.
//
// Environment:
//
//	LATTECC_CONFORMANCE=1     enable the corpus
//	LATTECC_ORACLE_SEED=N     replay a specific base seed
//	LATTECC_ORACLE_ROUNDS=N   rounds (default 24)
//	LATTECC_SEED_FILE=path    where to record a divergence seed
//	                          (default divergence_seed.txt)
func TestConformanceCorpus(t *testing.T) {
	if os.Getenv("LATTECC_CONFORMANCE") == "" {
		t.Skip("long randomized corpus disabled; set LATTECC_CONFORMANCE=1")
	}
	seed := time.Now().UnixNano()
	if s := os.Getenv("LATTECC_ORACLE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad LATTECC_ORACLE_SEED %q: %v", s, err)
		}
		seed = v
	}
	rounds := 24
	if s := os.Getenv("LATTECC_ORACLE_ROUNDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad LATTECC_ORACLE_ROUNDS %q", s)
		}
		rounds = v
	}
	t.Logf("conformance corpus: base seed %d, %d rounds (replay with LATTECC_ORACLE_SEED=%d)",
		seed, rounds, seed)

	for round := 0; round < rounds; round++ {
		roundSeed := seed + int64(round)*9973
		if d := DiffAll(roundSeed, 32); d != nil {
			recordDivergenceSeed(t, d)
			t.Fatalf("round %d: %v", round, d)
		}
	}
}

// recordDivergenceSeed writes the replay seed to the artifact file CI
// uploads on failure.
func recordDivergenceSeed(t *testing.T, d *Divergence) {
	t.Helper()
	path := os.Getenv("LATTECC_SEED_FILE")
	if path == "" {
		path = "divergence_seed.txt"
	}
	body := fmt.Sprintf("component=%s\nseed=%d\nstep=%d\ndetail=%s\nreplay=LATTECC_ORACLE_COMPONENT=%s LATTECC_ORACLE_SEED=%d go test ./internal/oracle/ -run TestReplayDivergence -v\n",
		d.Component, d.Seed, d.Step, d.Detail, d.Component, d.Seed)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("could not record divergence seed to %s: %v", path, err)
	} else {
		t.Logf("divergence seed recorded to %s", path)
	}
}

// TestReplayDivergence re-executes one component's differential runner
// on a recorded seed. The runners derive every choice from the seed and
// generate scripts as prefixes, so a longer replay run revisits the
// original divergence step exactly.
func TestReplayDivergence(t *testing.T) {
	comp := os.Getenv("LATTECC_ORACLE_COMPONENT")
	if comp == "" {
		t.Skip("set LATTECC_ORACLE_COMPONENT and LATTECC_ORACLE_SEED (see divergence_seed.txt)")
	}
	seed, err := strconv.ParseInt(os.Getenv("LATTECC_ORACLE_SEED"), 10, 64)
	if err != nil {
		t.Fatalf("bad LATTECC_ORACLE_SEED %q: %v", os.Getenv("LATTECC_ORACLE_SEED"), err)
	}
	var d *Divergence
	switch {
	case strings.HasPrefix(comp, "codec"):
		d = DiffCodecs(seed, 4096)
	case comp == "cache":
		d = DiffCache(seed, 8192)
	case strings.HasPrefix(comp, "sched"):
		d = DiffSchedulers(seed, 8192)
	default:
		t.Fatalf("unknown component %q", comp)
	}
	if d == nil {
		t.Fatalf("seed %d no longer diverges for %s", seed, comp)
	}
	t.Fatalf("reproduced: %v", d)
}
