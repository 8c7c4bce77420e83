package resultstore

import "testing"

// TestAllocationBudget pins what hashing, encoding and decoding one
// entry cost in allocations: StateHash none, Encode its one output
// buffer, Decode no more than the strings, slices and series it
// restores (15 for testResult). A visitor or cursor that starts
// escaping to the heap shows up here rather than as a drift in the
// store benchmarks.
func TestAllocationBudget(t *testing.T) {
	k, res := testKey("SS"), testResult("SS")
	raw := Encode(k, res)
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"StateHash", 0, func() { _ = res.StateHash() }},
		{"Encode", 1, func() { _ = Encode(k, res) }},
		{"Decode", 15, func() {
			if _, _, err := Decode(raw); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %.0f allocs, budget %.0f", c.name, got, c.max)
		}
	}
}
