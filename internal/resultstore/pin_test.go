package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lattecc/internal/harness"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
)

// emptyKey and emptyResult are the second pinned entry: a zero variant,
// a result whose slices are empty and whose series are nil.
func emptyKey() harness.StoreKey {
	return harness.StoreKey{Fingerprint: 0x0123456789abcdef, Workload: "FW", Policy: harness.Uncompressed}
}

func emptyResult() sim.Result {
	res := testResult("FW")
	res.Kernels = []sim.KernelResult{}
	res.EPLog = []modes.Mode{}
	res.EPKernels = []int32{}
	res.ToleranceSeries, res.CapacitySeries = nil, nil
	return res
}

// pinnedEntries are LCR1 entries committed under testdata, each with the
// StateHash of the result it was encoded from. The round-trip and
// corruption tests only check that Encode and Decode agree with each
// other; these pin the bytes themselves, so a change that moves the
// format or a StateHash fails here.
var pinnedEntries = []struct {
	file string
	key  harness.StoreKey
	res  func() sim.Result
	hash uint64
}{
	{"entry_v1.lcr", testKey("SS"), func() sim.Result { return testResult("SS") }, 0x9b0f76d58ef45190},
	{"entry_v1_empty.lcr", emptyKey(), emptyResult, 0x66262d60d2fa144d},
}

func TestEntryBytesPinned(t *testing.T) {
	for _, p := range pinnedEntries {
		want, err := os.ReadFile(filepath.Join("testdata", p.file))
		if err != nil {
			t.Fatal(err)
		}
		res := p.res()
		if got := res.StateHash(); got != p.hash {
			t.Errorf("%s: StateHash 0x%016x, pinned 0x%016x", p.file, got, p.hash)
		}
		if got := Encode(p.key, res); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: Encode differs from the pinned bytes at offset %d (%d bytes, pinned %d)", p.file, i, len(got), len(want))
		}
		k, dec, err := Decode(want)
		if err != nil {
			t.Errorf("%s: Decode: %v", p.file, err)
			continue
		}
		if k != p.key {
			t.Errorf("%s: key %+v, want %+v", p.file, k, p.key)
		}
		if got := dec.StateHash(); got != p.hash {
			t.Errorf("%s: decoded StateHash 0x%016x, pinned 0x%016x", p.file, got, p.hash)
		}
	}
}
