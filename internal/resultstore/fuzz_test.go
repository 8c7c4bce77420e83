package resultstore

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lattecc/internal/invariant"
)

// FuzzDecode feeds Decode arbitrary entries. Each input's trailing
// checksum is recomputed first, so mutations reach the body decoder
// instead of stopping at the checksum. Decode must never panic, and an
// entry it accepts must re-encode to the same bytes and carry the
// StateHash of the result it decodes to. The seed corpus under
// testdata/fuzz/FuzzDecode holds the pinned entries (pin_test.go) and
// the inputs that once decoded to a result that re-encoded differently,
// so plain go test replays them.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		raw := reseal(in)
		k, res, err := Decode(raw)
		if err != nil {
			return
		}
		if again := Encode(k, res); !bytes.Equal(again, raw) {
			t.Fatalf("decoded entry re-encodes differently:\n got %x\nwant %x", again, raw)
		}
		stored := binary.LittleEndian.Uint64(raw[len(raw)-footerLen:])
		if got := res.StateHash(); got != stored {
			t.Fatalf("StateHash 0x%016x, stored 0x%016x", got, stored)
		}
	})
}

// reseal returns a copy of raw whose last 8 bytes are the checksum of
// the bytes before them, as Encode would write it.
func reseal(raw []byte) []byte {
	raw = bytes.Clone(raw)
	if len(raw) < 8 {
		return raw
	}
	sum := invariant.NewHash()
	sum.Bytes(raw[:len(raw)-8])
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], sum.Sum())
	return raw
}
