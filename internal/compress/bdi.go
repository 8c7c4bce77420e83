package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al.).
//
// BDI views the cache line as an array of fixed-size blocks (2, 4, or 8
// bytes), picks the first block as the base, and stores each block as a
// narrow signed delta from either the base or from zero (the "immediate"
// part, which captures small values embedded among large ones). A one-bit
// mask per block selects base vs zero. The paper models a 2-cycle
// compression and 2-cycle decompression latency (Section IV-C1).
//
// The encodings tried, in order of preference (smallest first), follow the
// original paper and Section IV-C1:
//
//	zeros            — the whole line is zero
//	rep8             — one repeated 8-byte value
//	b8d1, b8d2, b8d4 — 8-byte base, 1/2/4-byte deltas
//	b4d1, b4d2       — 4-byte base, 1/2-byte deltas
//	b2d1             — 2-byte base, 1-byte deltas
//	raw              — incompressible, stored verbatim
type BDI struct{}

// NewBDI returns the BDI codec.
func NewBDI() *BDI { return &BDI{} }

// Name implements Codec.
func (*BDI) Name() string { return "BDI" }

// CompLatency implements Codec (2 cycles, Section IV-C1).
func (*BDI) CompLatency() int { return 2 }

// DecompLatency implements Codec (2 cycles, Section IV-C1).
func (*BDI) DecompLatency() int { return 2 }

// bdiEncoding identifies the chosen BDI encoding in the stream header.
type bdiEncoding uint8

const (
	bdiZeros bdiEncoding = iota
	bdiRep8
	bdiB8D1
	bdiB8D2
	bdiB8D4
	bdiB4D1
	bdiB4D2
	bdiB2D1
	bdiRaw
)

// bdiParams returns (base bytes, delta bytes) for base-delta encodings.
func (e bdiEncoding) params() (base, delta int) {
	switch e {
	case bdiB8D1:
		return 8, 1
	case bdiB8D2:
		return 8, 2
	case bdiB8D4:
		return 8, 4
	case bdiB4D1:
		return 4, 1
	case bdiB4D2:
		return 4, 2
	case bdiB2D1:
		return 2, 1
	default:
		return 0, 0
	}
}

func (e bdiEncoding) String() string {
	names := [...]string{"zeros", "rep8", "b8d1", "b8d2", "b8d4", "b4d1", "b4d2", "b2d1", "raw"}
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("bdi(%d)", uint8(e))
}

// bdiEncodedSize returns the stored data size in bytes for an encoding,
// excluding the 4-bit compression_enc field that lives in the tag block
// (Section IV-C1 stores the encoding id in the tag, so it costs no data
// space; we keep the 1-byte software header out of the accounted size).
func bdiEncodedSize(e bdiEncoding) int {
	switch e {
	case bdiZeros:
		return 1 // hardware needs no data bytes; account 1 to stay nonzero
	case bdiRep8:
		return 8
	case bdiRaw:
		return LineSize
	default:
		base, delta := e.params()
		n := LineSize / base
		// base value + one delta per block + 1-bit base/zero mask per block
		return base + n*delta + (n+7)/8
	}
}

// Compress implements Codec: it writes the stream of the encoding
// bdiChoose picks, a one-byte encoding id and then the payload.
func (*BDI) Compress(line []byte) Encoded {
	e := bdiChoose(line)
	enc := sized(bdiEncodedSize(e))
	enc.Data = bdiStream(line, e)
	return enc
}

// Measure implements Codec: the encoding Compress would write, without
// its stream.
//
//lint:hotpath
func (*BDI) Measure(line []byte) Encoded {
	return sized(bdiEncodedSize(bdiChoose(line)))
}

// bdiTryOrder lists the base+delta encodings from smallest stored size
// to largest, the preference order of bdiChoose. A package-level array
// (not a slice) so ranging over it never allocates.
var bdiTryOrder = [...]bdiEncoding{bdiB2D1, bdiB4D1, bdiB8D1, bdiB4D2, bdiB8D2, bdiB8D4}

// bdiChoose returns the smallest encoding that fits the line: the one
// decision behind both Compress and Measure.
//
//lint:hotpath
func bdiChoose(line []byte) bdiEncoding {
	checkLine(line)
	if isZeroLine(line) {
		return bdiZeros
	}
	if bdiRepeated8(line) {
		return bdiRep8
	}
	best := bdiRaw
	bestSize := LineSize
	for _, e := range bdiTryOrder {
		if bdiFitsBaseDelta(line, e) {
			if size := bdiEncodedSize(e); size < bestSize {
				best, bestSize = e, size
			}
		}
	}
	return best
}

// bdiFitsBaseDelta reports whether every block of the line is a delta
// of e's width from bdiBase or from zero.
//
//lint:hotpath
func bdiFitsBaseDelta(line []byte, e bdiEncoding) bool {
	baseSz, deltaSz := e.params()
	deltaBits := uint(deltaSz * 8)
	base := bdiBase(line, baseSz, deltaBits)
	for i := 0; i < LineSize/baseSz; i++ {
		b := bdiReadBlock(line[i*baseSz:], baseSz)
		if !fitsSigned(b-base, deltaBits) && !fitsSigned(b, deltaBits) {
			return false
		}
	}
	return true
}

// bdiBase returns the base of a base+delta encoding. The hardware uses
// the first block that does not fit the delta width: blocks that do are
// encoded as deltas from zero, so the base should be the first "large"
// value. A line of small blocks takes its first block.
func bdiBase(line []byte, baseSz int, deltaBits uint) int64 {
	for i := 0; i < LineSize/baseSz; i++ {
		if b := bdiReadBlock(line[i*baseSz:], baseSz); !fitsSigned(b, deltaBits) {
			return b
		}
	}
	return bdiReadBlock(line, baseSz)
}

// bdiStream returns the stream of encoding e, which must fit the line.
// A base+delta payload is: base value (base bytes) | mask ((n+7)/8
// bytes) | n deltas (delta bytes each, little-endian, sign-extended on
// decode). Mask bit i set means block i is a delta from the base; clear
// means a delta from zero (immediate).
func bdiStream(line []byte, e bdiEncoding) []byte {
	data := []byte{byte(e)}
	switch e {
	case bdiZeros:
		return data
	case bdiRep8:
		return append(data, line[:8]...)
	case bdiRaw:
		return append(data, line...)
	}
	baseSz, deltaSz := e.params()
	n := LineSize / baseSz
	deltaBits := uint(deltaSz * 8)
	base := bdiBase(line, baseSz, deltaBits)
	data = appendIntLE(data, base, baseSz)
	mask := len(data)
	data = append(data, make([]byte, (n+7)/8)...)
	for i := 0; i < n; i++ {
		d := bdiReadBlock(line[i*baseSz:], baseSz)
		if fitsSigned(d-base, deltaBits) {
			data[mask+i/8] |= 1 << (i % 8)
			d -= base
		}
		data = appendIntLE(data, d, deltaSz)
	}
	return data
}

// bdiRepeated8 reports whether the line is one repeated 8-byte value.
func bdiRepeated8(line []byte) bool {
	v := binary.LittleEndian.Uint64(line)
	for off := 8; off < LineSize; off += 8 {
		if binary.LittleEndian.Uint64(line[off:]) != v {
			return false
		}
	}
	return true
}

// bdiReadBlock reads a little-endian block of 2, 4, or 8 bytes as a signed
// value (two's complement over the block width, widened to int64).
func bdiReadBlock(b []byte, size int) int64 {
	switch size {
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b)))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b)))
	case 8:
		return int64(binary.LittleEndian.Uint64(b))
	default:
		//lint:allow panic-audit block size is one of the fixed BDI geometries; any other value is a codec bug
		panic(errBadBDIBlockSize)
	}
}

// errBadBDIBlockSize is a package value so that bdiReadBlock panics
// without converting a string to an interface, which escape analysis
// would report in every //lint:hotpath fit check it inlines into.
var errBadBDIBlockSize = errors.New("compress: bad BDI block size")

// appendIntLE appends the low size bytes of v in little-endian order.
func appendIntLE(dst []byte, v int64, size int) []byte {
	for i := 0; i < size; i++ {
		dst = append(dst, byte(uint64(v)>>(8*i)))
	}
	return dst
}

// Decompress implements Codec.
func (*BDI) Decompress(enc Encoded) ([]byte, error) {
	if err := decodeFault("bdi"); err != nil {
		return nil, err
	}
	if len(enc.Data) == 0 {
		return nil, fmt.Errorf("bdi: empty stream")
	}
	e := bdiEncoding(enc.Data[0])
	payload := enc.Data[1:]
	switch e {
	case bdiZeros:
		return make([]byte, LineSize), nil
	case bdiRep8:
		if len(payload) < 8 {
			return nil, fmt.Errorf("bdi: rep8 payload too short")
		}
		out := make([]byte, LineSize)
		for off := 0; off < LineSize; off += 8 {
			copy(out[off:], payload[:8])
		}
		return out, nil
	case bdiRaw:
		if len(payload) < LineSize {
			return nil, fmt.Errorf("bdi: raw payload too short")
		}
		return append([]byte(nil), payload[:LineSize]...), nil
	case bdiB8D1, bdiB8D2, bdiB8D4, bdiB4D1, bdiB4D2, bdiB2D1:
		return bdiDecodeBaseDelta(payload, e)
	default:
		return nil, fmt.Errorf("bdi: unknown encoding %d", e)
	}
}

func bdiDecodeBaseDelta(payload []byte, e bdiEncoding) ([]byte, error) {
	baseSz, deltaSz := e.params()
	n := LineSize / baseSz
	maskLen := (n + 7) / 8
	want := baseSz + maskLen + n*deltaSz
	if len(payload) < want {
		return nil, fmt.Errorf("bdi: %v payload %d bytes, want %d", e, len(payload), want)
	}
	base := readIntLE(payload[:baseSz], baseSz)
	mask := payload[baseSz : baseSz+maskLen]
	deltas := payload[baseSz+maskLen:]
	out := make([]byte, LineSize)
	for i := 0; i < n; i++ {
		d := readIntLE(deltas[i*deltaSz:], deltaSz)
		v := d
		if mask[i/8]&(1<<(i%8)) != 0 {
			v = base + d
		}
		writeIntLE(out[i*baseSz:], v, baseSz)
	}
	return out, nil
}

// readIntLE reads size little-endian bytes as a sign-extended int64.
func readIntLE(b []byte, size int) int64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return signExtend(v, uint(size*8))
}

// writeIntLE writes the low size bytes of v in little-endian order.
func writeIntLE(dst []byte, v int64, size int) {
	for i := 0; i < size; i++ {
		dst[i] = byte(uint64(v) >> (8 * i))
	}
}
