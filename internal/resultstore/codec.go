// Package resultstore is the persistent tier below the harness's
// in-memory single-flight run cache: an on-disk store of serialized
// sim.Results keyed by (machine fingerprint, workload, policy, variant),
// with size-bounded LRU spill, a warm-start directory scan at open, and
// raw-entry access for the cluster's cache-peer protocol.
//
// The store's one hard contract is fail-closed validation: every entry
// carries the StateHash of the result it was encoded from plus a
// whole-file checksum, and Load recomputes the hash from the decoded
// result before returning it. Truncation, bit rot, version skew, or a
// filename-hash collision all degrade to a cache miss (the caller
// re-simulates); a wrong result is never returned. The corrupt-sweep
// tests pin this at every byte offset, the same discipline as
// internal/tracefile.
package resultstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"lattecc/internal/harness"
	"lattecc/internal/invariant"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/stats"
)

// Entry format, version 1 (all integers are uvarint unless noted):
//
//	magic "LCR1" (4 bytes) | modes.NumModes (1 byte)
//	key:    fingerprint (8 bytes LE), workload, policy,
//	        variant flags (1 byte), variant extra-hit-latency
//	result: every sim.Result field, in sim.Result.Walk's order; EPKernels
//	        entries as uvarint of their uint32 bits; a series as a
//	        presence byte (0 nil, 1 present), then its name and points,
//	        each point's cycle as uvarint and value as raw IEEE-754 bits
//	        (8 bytes LE) so restored floats are bit-identical
//	hash:   StateHash of the encoded result (8 bytes LE)
//	sum:    FNV-1a over every preceding byte (8 bytes LE)
//
// Strings and slices are length-prefixed. Decode bounds every length
// against the bytes actually remaining, so a corrupt prefix can never
// drive an allocation larger than the (already size-checked) file. It
// also refuses every encoding Encode never writes (non-minimal uvarints,
// unknown variant flags, EPKernels entries past 32 bits), so an entry
// that decodes re-encodes to its own bytes.
const (
	magic = "LCR1"

	variantCapacityOnly = 1 << 0
	variantLatencyOnly  = 1 << 1
	variantSampleSeries = 1 << 2

	// footerLen is the stored StateHash plus the file checksum.
	footerLen = 16
)

// ErrCorrupt wraps every decode failure: truncation, checksum or
// StateHash mismatch, version skew, implausible lengths. Callers treat
// any of them identically — discard the entry and miss.
var ErrCorrupt = fmt.Errorf("resultstore: corrupt entry")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// KeyHash folds a store key into the 64-bit value used as the entry's
// filename (and the /v1/results/{key} path segment in the cache-peer
// protocol). Decode re-checks the full key fields, so a hash collision
// degrades to a miss, not a wrong result.
func KeyHash(k harness.StoreKey) uint64 {
	h := invariant.NewHash()
	h.Uint64(k.Fingerprint)
	h.String(k.Workload)
	h.String(string(k.Policy))
	h.Byte(variantFlags(k.Variant))
	h.Uint64(k.Variant.ExtraHitLatency)
	return h.Sum()
}

// KeyHex renders KeyHash the way entries are named on disk and
// addressed between peers: fixed-width lowercase hex.
func KeyHex(k harness.StoreKey) string { return fmt.Sprintf("%016x", KeyHash(k)) }

func variantFlags(v harness.Variant) byte {
	var f byte
	if v.CapacityOnly {
		f |= variantCapacityOnly
	}
	if v.LatencyOnly {
		f |= variantLatencyOnly
	}
	if v.SampleSeries {
		f |= variantSampleSeries
	}
	return f
}

// Encode serializes one (key, result) pair into a self-validating entry.
func Encode(k harness.StoreKey, res sim.Result) []byte {
	w := writer{b: make([]byte, 0, 256+16*len(res.Kernels)+len(res.EPLog)+5*len(res.EPKernels)+
		16*(res.ToleranceSeries.Len()+res.CapacitySeries.Len()))}
	w.b = append(w.b, magic...)
	w.byte(modes.NumModes)

	// Key block.
	w.b = binary.LittleEndian.AppendUint64(w.b, k.Fingerprint)
	w.str(k.Workload)
	w.str(string(k.Policy))
	w.byte(variantFlags(k.Variant))
	w.uvarint(k.Variant.ExtraHitLatency)

	// Result block.
	res.Walk(sim.Visitor{String: w.str, Uint64: w.uvarint, Int32: w.int32,
		Byte: w.byte, Len: w.count, Series: w.series})

	// Footer: the result's own StateHash, then a checksum of everything.
	b := binary.LittleEndian.AppendUint64(w.b, res.StateHash())
	sum := invariant.NewHash()
	sum.Bytes(b)
	return binary.LittleEndian.AppendUint64(b, sum.Sum())
}

// writer appends an entry's fields; its methods are the encoding
// visitor of sim.Result.Walk, each returning its argument.
type writer struct{ b []byte }

func (w *writer) byte(x byte) byte { w.b = append(w.b, x); return x }

func (w *writer) uvarint(x uint64) uint64 { w.b = binary.AppendUvarint(w.b, x); return x }

func (w *writer) int32(x int32) int32 { w.uvarint(uint64(uint32(x))); return x }

func (w *writer) count(n int) int { w.uvarint(uint64(n)); return n }

func (w *writer) str(s string) string {
	w.count(len(s))
	w.b = append(w.b, s...)
	return s
}

func (w *writer) series(s *stats.Series) *stats.Series {
	if s == nil {
		w.byte(0)
		return nil
	}
	w.byte(1)
	w.str(s.Name)
	w.count(s.Len())
	for _, p := range s.Points() {
		w.uvarint(p.Cycle)
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(p.Value))
	}
	return s
}

// Decode parses and validates one entry. It never panics on garbage:
// every length is bounds-checked before use, the trailing checksum must
// match, and the StateHash recomputed from the decoded result must equal
// the stored one. Any failure returns ErrCorrupt (wrapped with detail).
func Decode(raw []byte) (harness.StoreKey, sim.Result, error) {
	var k harness.StoreKey
	var res sim.Result
	if len(raw) < len(magic)+1+footerLen {
		return k, res, corruptf("short entry: %d bytes", len(raw))
	}
	sum := invariant.NewHash()
	sum.Bytes(raw[:len(raw)-8])
	if got := binary.LittleEndian.Uint64(raw[len(raw)-8:]); got != sum.Sum() {
		return k, res, corruptf("checksum mismatch")
	}
	storedHash := binary.LittleEndian.Uint64(raw[len(raw)-footerLen : len(raw)-8])

	r := &reader{data: raw[:len(raw)-footerLen]}
	if string(r.take(len(magic))) != magic {
		return k, res, corruptf("bad magic")
	}
	if nm := r.byte(); nm != modes.NumModes {
		return k, res, corruptf("mode-count skew: entry has %d, build has %d", nm, modes.NumModes)
	}

	k.Fingerprint = r.u64le()
	k.Workload = r.str()
	k.Policy = harness.Policy(r.str())
	flags := r.byte()
	if flags&^(variantCapacityOnly|variantLatencyOnly|variantSampleSeries) != 0 {
		r.fail("unknown variant flags 0x%02x", flags)
	}
	k.Variant.CapacityOnly = flags&variantCapacityOnly != 0
	k.Variant.LatencyOnly = flags&variantLatencyOnly != 0
	k.Variant.SampleSeries = flags&variantSampleSeries != 0
	k.Variant.ExtraHitLatency = r.uvarint()

	res.Walk(sim.Visitor{
		String: func(string) string { return r.str() },
		Uint64: func(uint64) uint64 { return r.uvarint() },
		Int32:  func(int32) int32 { return r.int32() },
		Byte:   func(byte) byte { return r.byte() },
		Len:    func(int) int { return r.count() },
		Series: func(*stats.Series) *stats.Series { return r.series() },
	})

	if r.err != nil {
		return harness.StoreKey{}, sim.Result{}, r.err
	}
	if r.pos != len(r.data) {
		return harness.StoreKey{}, sim.Result{}, corruptf("%d trailing bytes", len(r.data)-r.pos)
	}
	if got := res.StateHash(); got != storedHash {
		return harness.StoreKey{}, sim.Result{}, corruptf(
			"state-hash mismatch: stored 0x%016x, recomputed 0x%016x", storedHash, got)
	}
	return k, res, nil
}

// reader is a bounds-checked cursor over an entry's body. The first
// failure latches err; every later read is a no-op returning zero, so
// Decode can run straight-line and check err once per variable-length
// section (and once at the end).
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf(format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.fail("truncated at offset %d (want %d more bytes)", r.pos, n)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u64le() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.pos)
		return 0
	}
	// A trailing zero byte pads the value; Encode never writes one, so
	// such an entry would not re-encode to its own bytes.
	if n > 1 && r.data[r.pos+n-1] == 0 {
		r.fail("non-minimal uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// int32 reads an EPKernels entry, which Encode writes as the uvarint of
// its uint32 bits.
func (r *reader) int32() int32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("int32 out of range: %d", v)
		return 0
	}
	return int32(uint32(v))
}

// count reads a length prefix and rejects implausible values: a
// honest count can never exceed the bytes remaining (every counted
// element is at least one byte), so a corrupt length fails here instead
// of driving a giant allocation.
func (r *reader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)-r.pos) {
		r.fail("implausible count %d at offset %d (%d bytes remain)", v, r.pos, len(r.data)-r.pos)
		return 0
	}
	return int(v)
}

func (r *reader) str() string { return string(r.take(r.count())) }

func (r *reader) series() *stats.Series {
	switch r.byte() {
	case 0:
		return nil
	case 1:
	default:
		r.fail("bad series presence byte at offset %d", r.pos-1)
		return nil
	}
	name := r.str()
	n := r.count()
	if r.err != nil {
		return nil
	}
	pts := make([]stats.Point, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		pts = append(pts, stats.Point{Cycle: r.uvarint(), Value: math.Float64frombits(r.u64le())})
	}
	if r.err != nil {
		return nil
	}
	return stats.RestoreSeries(name, pts)
}
