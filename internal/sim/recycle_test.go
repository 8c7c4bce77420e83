package sim

import (
	"testing"

	"lattecc/internal/compress"
	"lattecc/internal/invariant"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/workload"
)

// TestNewOnRunsAsNew chains runs, each built on the buffers of the one
// before, and requires each to hash as the same run on new arrays. The
// chain changes workload (so a memo or L2 that kept the last run's
// lines would show), trains and rebuilds SC before SC runs, passes an
// SC through a run that has none, grows the L1 and the SM count and
// shrinks them again, and reaches BPC's memo table. Invariant checks
// are on, so NewOn also asserts that every recycled array reads as new.
func TestNewOnRunsAsNew(t *testing.T) {
	prev := invariant.SetActive(true)
	defer invariant.SetActive(prev)

	base := DefaultConfig()
	base.NumSMs = 2
	base.MaxInstructions = 40_000
	big := base
	big.NumSMs = 3
	big.Cache.SizeBytes = 32 << 10
	bpc := base
	bpc.Cache.Codecs[modes.HighCap] = compress.NewBPC()
	staticSC := func(int) modes.Controller { return policy.NewStatic(modes.HighCap, "Static-SC", 256, 10) }

	var b *Buffers
	for _, step := range []struct {
		workload string
		cfg      Config
		factory  ControllerFactory
	}{
		{"SS", base, latteFactory},
		{"FW", base, latteFactory},
		{"HW", big, staticSC},
		{"SS", base, baselineFactory},
		{"FW", bpc, latteFactory},
		{"HW", base, latteFactory},
	} {
		w, err := workload.ByName(step.workload)
		if err != nil {
			t.Fatal(err)
		}
		want := New(step.cfg, w, step.factory).Run().StateHash()
		s := NewOn(step.cfg, w, step.factory, b)
		if got := s.Run().StateHash(); got != want {
			t.Errorf("%s on recycled buffers: StateHash %#016x, want %#016x", step.workload, got, want)
		}
		b = s.Buffers()
	}
}
