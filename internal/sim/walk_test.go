package sim

import (
	"sync"
	"testing"

	"lattecc/internal/modes"
	"lattecc/internal/stats"
)

// TestWalkReadOnlyVisitorWritesNothing hashes one result from several
// goroutines at once. Hashing copies the Result but shares its slices,
// so a Walk that stored back unchanged values would write the shared
// elements, a data race that go test -race reports. The decoding side
// (a visitor that returns new values into a zero Result) is covered by
// the result store's round-trip tests.
func TestWalkReadOnlyVisitorWritesNothing(t *testing.T) {
	s := stats.NewSeries("tolerance", 8)
	s.Add(1, 0.5)
	res := Result{
		Policy:    "LATTE-CC",
		Kernels:   []KernelResult{{Name: "k0", Cycles: 10}},
		EPLog:     []modes.Mode{modes.LowLat},
		EPKernels: []int32{3},

		ToleranceSeries: s,
	}
	want := res.StateHash()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := res.StateHash(); got != want {
				t.Errorf("StateHash 0x%016x, want 0x%016x", got, want)
			}
		}()
	}
	wg.Wait()
}
