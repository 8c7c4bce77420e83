// Package compress implements the five cache-line compression algorithms
// evaluated in the LATTE-CC paper (Table I):
//
//   - BDI    — Base-Delta-Immediate (Pekhimenko et al., PACT 2012)
//   - FPC    — Frequent Pattern Compression (Alameldeen & Wood)
//   - CPACK  — C-PACK dictionary compression with zero-line detection
//   - BPC    — Bit-Plane Compression (Kim et al., ISCA 2016)
//   - SC     — Huffman-based Statistical Compression (Arelakis & Stenström)
//
// All codecs operate on fixed-size cache lines (LineSize bytes) and produce
// self-contained byte streams that round-trip exactly. Compressed sizes are
// reported in bytes; the compressed cache rounds them up to 32-byte
// sub-blocks when allocating data storage.
//
// Every codec is deterministic. SC is the only stateful codec: its Huffman
// code book is rebuilt periodically from a value-frequency table that is
// trained on inserted lines, mirroring the hardware VFT of Section IV-C2.
package compress

import (
	"encoding/binary"
	"fmt"

	"lattecc/internal/fault"
)

// LineSize is the cache line size in bytes (Table II: 128B lines).
const LineSize = 128

// WordsPerLine is the number of 32-bit words in a cache line.
const WordsPerLine = LineSize / 4

// Codec compresses and decompresses single cache lines.
type Codec interface {
	// Name returns the short algorithm name used in reports ("BDI", "SC", ...).
	Name() string

	// CompLatency returns the compression latency in SM cycles.
	CompLatency() int

	// DecompLatency returns the decompression latency in SM cycles. This
	// is the extra hit latency a compressed line pays (before queueing).
	DecompLatency() int

	// Compress encodes line (which must be LineSize bytes) and returns the
	// encoded form. A line whose encoding would take LineSize bytes or
	// more is reported Raw at Size LineSize; Encoded.Size is the size the
	// cache accounts for, whatever the length of the software stream.
	Compress(line []byte) Encoded

	// Decompress decodes an Encoded value produced by this codec and
	// returns the original LineSize bytes. It returns an error if the
	// encoding is corrupt or was produced by an incompatible code book.
	Decompress(enc Encoded) ([]byte, error)

	// Measure returns what Compress would report for line — Size, Raw,
	// and Generation — without materialising the encoded stream (Data is
	// nil). The cache only ever stores sizes, so its fill path uses
	// Measure and never pays the stream's allocations; paranoid mode
	// cross-checks Measure against a full Compress on every fill.
	// Implementations are //lint:hotpath: they must not heap-allocate.
	Measure(line []byte) Encoded
}

// Encoded is a compressed cache line together with its accounting size.
type Encoded struct {
	// Data is the self-contained encoded byte stream.
	Data []byte
	// Size is the size in bytes the cache should account for. It can be
	// smaller than len(Data) when the hardware encoding packs bits more
	// tightly than the byte-aligned software stream, and is never larger
	// than LineSize (incompressible lines are stored raw).
	Size int
	// Raw reports that the line is stored uncompressed (no decompression
	// latency applies on hits).
	Raw bool
	// Generation tags stateful codecs' code books (SC). A line encoded
	// under an old generation cannot be decoded after a rebuild; the
	// cache flushes such lines when the controller requests it.
	Generation uint64
}

// CompressionRatio returns the ratio of the original line size to the
// compressed size (>= 1 for any successful compression).
func (e Encoded) CompressionRatio() float64 {
	if e.Size <= 0 {
		return 1
	}
	return float64(LineSize) / float64(e.Size)
}

// decodeFault is the codec.decode fault-injection point: every codec's
// Decompress consults it before touching its stream, so the conformance
// layer can prove that a decode failure surfaces as an error all the way
// up through the cache's paranoid fill checks and the daemon's job
// lifecycle — never as a panic or a silently wrong line.
func decodeFault(codec string) error {
	if fault.Hit("codec.decode") {
		return fault.Errorf("codec.decode", "%s decode failed", codec)
	}
	return nil
}

// checkLine panics if the input is not exactly one cache line. Codecs are
// internal components fed by the cache; a wrong size is a programming error.
func checkLine(line []byte) {
	if len(line) != LineSize {
		badLineSize(len(line))
	}
}

// badLineSize stays out of line (go:noinline) so checkLine can inline
// into the //lint:hotpath Measure paths without dragging the panic's
// fmt boxing into their escape-analysis range.
//
//go:noinline
func badLineSize(n int) {
	//lint:allow panic-audit a wrong line size is a cache-integration bug, not input; same contract as checkLine
	panic(fmt.Sprintf("compress: line must be %d bytes, got %d", LineSize, n))
}

// words32 reinterprets a line as little-endian 32-bit words.
func words32(line []byte) [WordsPerLine]uint32 {
	var w [WordsPerLine]uint32
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(line[i*4:])
	}
	return w
}

// putWords32 writes little-endian 32-bit words into a LineSize buffer.
func putWords32(w [WordsPerLine]uint32) []byte {
	out := make([]byte, LineSize)
	for i, v := range w {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// sized is the size rule every codec reports by: an encoding of n
// accounted bytes is stored raw, at LineSize, once n reaches LineSize.
func sized(n int) Encoded {
	if n >= LineSize {
		return Encoded{Size: LineSize, Raw: true}
	}
	return Encoded{Size: n}
}

// isZeroLine reports whether every byte of the line is zero.
func isZeroLine(line []byte) bool {
	for _, b := range line {
		if b != 0 {
			return false
		}
	}
	return true
}

// bitWriter packs bits most-significant-first into a byte stream. The codecs
// use it to produce the exact bit counts the hardware encodings would, while
// still emitting a decodable software stream in buf (its final partial
// byte zero-padded). With countOnly set it only tracks the bit count —
// the Measure fast path shares each codec's encode core without ever
// touching a buffer.
type bitWriter struct {
	buf       []byte
	nbit      uint
	countOnly bool
}

// WriteBits appends the low n bits of v (n <= 64), most significant first.
func (w *bitWriter) WriteBits(v uint64, n uint) {
	if n > 64 {
		badBitCount()
	}
	if w.countOnly {
		w.nbit += n
		return
	}
	for i := int(n) - 1; i >= 0; i-- {
		bit := (v >> uint(i)) & 1
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if bit != 0 {
			w.buf[len(w.buf)-1] |= 1 << (7 - w.nbit%8)
		}
		w.nbit++
	}
}

// badBitCount stays out of line (go:noinline) so WriteBits can inline
// into the //lint:hotpath encode cores with no escape of its own.
//
//go:noinline
func badBitCount() {
	//lint:allow panic-audit bit-count is a compile-time codec constant; >64 is a codec bug, not input
	panic("compress: WriteBits n > 64")
}

// SizeBytes returns the stream size rounded up to whole bytes.
func (w *bitWriter) SizeBytes() int { return (int(w.nbit) + 7) / 8 }

// bitReader reads bits most-significant-first from a byte stream.
type bitReader struct {
	buf []byte
	pos uint // bit position
}

// ReadBits reads n bits (n <= 64) and returns them right-aligned. It
// returns an error if the stream is exhausted.
func (r *bitReader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		//lint:allow panic-audit bit-count is a compile-time codec constant; >64 is a codec bug, not input
		panic("compress: ReadBits n > 64")
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		byteIdx := r.pos / 8
		if int(byteIdx) >= len(r.buf) {
			return 0, fmt.Errorf("compress: bit stream exhausted at bit %d", r.pos)
		}
		bit := (r.buf[byteIdx] >> (7 - r.pos%8)) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

// ReadBit reads a single bit.
func (r *bitReader) ReadBit() (uint64, error) { return r.ReadBits(1) }

// signExtend sign-extends the low n bits of v to 64 bits.
func signExtend(v uint64, n uint) int64 {
	shift := 64 - n
	return int64(v<<shift) >> shift
}

// fitsSigned reports whether the signed value v is representable in n bits.
func fitsSigned(v int64, n uint) bool {
	if n >= 64 {
		return true
	}
	lim := int64(1) << (n - 1)
	return v >= -lim && v < lim
}
