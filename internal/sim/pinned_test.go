package sim_test

import (
	"testing"

	"lattecc/internal/harness"
	"lattecc/internal/sim"
)

// TestTableIIStateHashPinned pins two full Table II runs whose hashes
// move when an SM reports a miss latency at the miss instead of after
// the cycle's accesses (DESIGN.md §12); the tiny golden runs do not
// notice that change.
func TestTableIIStateHashPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("two full Table II runs; too slow under -race")
	}
	for _, tc := range []struct {
		workload string
		want     uint64
	}{
		{"KM", 0x049918f1743fa272},
		{"MM", 0x454acb602f12f1dc},
	} {
		res, err := harness.NewSuite(sim.DefaultConfig()).Run(tc.workload, harness.LatteBDIBPC, harness.Variant{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.StateHash(); got != tc.want {
			t.Errorf("%s under %s: StateHash %#016x, want %#016x", tc.workload, harness.LatteBDIBPC, got, tc.want)
		}
	}
}
