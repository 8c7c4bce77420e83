package compress

import "fmt"

// FPC implements Frequent Pattern Compression (Alameldeen & Wood). Each
// 32-bit word is matched against a small set of frequent patterns and
// stored as a 3-bit prefix plus the pattern's significant bits. Table I
// models a 5-cycle decompression latency.
type FPC struct{}

// NewFPC returns the FPC codec.
func NewFPC() *FPC { return &FPC{} }

// Name implements Codec.
func (*FPC) Name() string { return "FPC" }

// CompLatency implements Codec.
func (*FPC) CompLatency() int { return 3 }

// DecompLatency implements Codec (Table I).
func (*FPC) DecompLatency() int { return 5 }

// FPC word patterns, in prefix order.
const (
	fpcZeroRun   = 0 // run of 1-8 all-zero words; 3-bit run length
	fpcSE4       = 1 // 4-bit sign-extended value
	fpcSE8       = 2 // 8-bit sign-extended value
	fpcSE16      = 3 // 16-bit sign-extended value
	fpcHalfZero  = 4 // lower halfword zero, upper halfword significant
	fpcTwoSE8    = 5 // two halfwords, each an 8-bit sign-extended value
	fpcRepBytes  = 6 // one byte repeated four times
	fpcUncompr   = 7 // verbatim 32-bit word
	fpcPrefixLen = 3
)

// fpcPayloadBits returns the payload bit count for each pattern.
func fpcPayloadBits(p uint64) uint {
	switch p {
	case fpcZeroRun:
		return 3
	case fpcSE4:
		return 4
	case fpcSE8:
		return 8
	case fpcSE16, fpcHalfZero, fpcTwoSE8:
		return 16
	case fpcRepBytes:
		return 8
	case fpcUncompr:
		return 32
	default:
		badFPCPattern()
		return 0
	}
}

// badFPCPattern stays out of line (go:noinline) so fpcPayloadBits can
// inline into the //lint:hotpath encode core with no escape of its own.
//
//go:noinline
func badFPCPattern() {
	//lint:allow panic-audit pattern tags are an exhaustive 3-bit enum written by this codec
	panic("compress: bad FPC pattern")
}

// Compress implements Codec.
func (*FPC) Compress(line []byte) Encoded {
	var w bitWriter
	enc := fpcEncode(line, &w)
	enc.Data = w.buf
	return enc
}

// Measure implements Codec: the same encode core against a counting
// writer, so the reported size is bit-exact with Compress.
//
//lint:hotpath
func (*FPC) Measure(line []byte) Encoded {
	w := bitWriter{countOnly: true}
	return fpcEncode(line, &w)
}

// fpcEncode is the shared encode core behind Compress and Measure: it
// writes the line's stream to w and returns its size.
//
//lint:hotpath
func fpcEncode(line []byte, w *bitWriter) Encoded {
	checkLine(line)
	words := words32(line)
	for i := 0; i < WordsPerLine; {
		v := words[i]
		if v == 0 {
			run := 1
			for i+run < WordsPerLine && words[i+run] == 0 && run < 8 {
				run++
			}
			w.WriteBits(fpcZeroRun, fpcPrefixLen)
			w.WriteBits(uint64(run-1), 3)
			i += run
			continue
		}
		p, payload := fpcMatch(v)
		w.WriteBits(p, fpcPrefixLen)
		w.WriteBits(payload, fpcPayloadBits(p))
		i++
	}
	return sized(w.SizeBytes())
}

// fpcMatch picks the best (smallest) pattern for a nonzero word.
func fpcMatch(v uint32) (pattern, payload uint64) {
	s := int64(int32(v))
	switch {
	case fitsSigned(s, 4):
		return fpcSE4, uint64(v) & 0xF
	case fitsSigned(s, 8):
		return fpcSE8, uint64(v) & 0xFF
	case fitsSigned(s, 16):
		return fpcSE16, uint64(v) & 0xFFFF
	case v&0xFFFF == 0:
		return fpcHalfZero, uint64(v >> 16)
	case fitsSigned(int64(int16(v&0xFFFF)), 8) && fitsSigned(int64(int16(v>>16)), 8):
		// Each halfword is representable as a sign-extended byte.
		return fpcTwoSE8, uint64(v>>16&0xFF)<<8 | uint64(v&0xFF)
	case fpcIsRepByte(v):
		return fpcRepBytes, uint64(v & 0xFF)
	default:
		return fpcUncompr, uint64(v)
	}
}

// fpcIsRepByte reports whether all four bytes of v are equal.
func fpcIsRepByte(v uint32) bool {
	b := v & 0xFF
	return v == b|b<<8|b<<16|b<<24
}

// Decompress implements Codec.
func (*FPC) Decompress(enc Encoded) ([]byte, error) {
	if err := decodeFault("fpc"); err != nil {
		return nil, err
	}
	r := bitReader{buf: enc.Data}
	var words [WordsPerLine]uint32
	for i := 0; i < WordsPerLine; {
		p, err := r.ReadBits(fpcPrefixLen)
		if err != nil {
			return nil, fmt.Errorf("fpc: %w", err)
		}
		payload, err := r.ReadBits(fpcPayloadBits(p))
		if err != nil {
			return nil, fmt.Errorf("fpc: %w", err)
		}
		switch p {
		case fpcZeroRun:
			run := int(payload) + 1
			if i+run > WordsPerLine {
				return nil, fmt.Errorf("fpc: zero run overflows line")
			}
			i += run // words are already zero
		case fpcSE4:
			words[i] = uint32(signExtend(payload, 4))
			i++
		case fpcSE8:
			words[i] = uint32(signExtend(payload, 8))
			i++
		case fpcSE16:
			words[i] = uint32(signExtend(payload, 16))
			i++
		case fpcHalfZero:
			words[i] = uint32(payload) << 16
			i++
		case fpcTwoSE8:
			lo := uint32(signExtend(payload&0xFF, 8)) & 0xFFFF
			hi := uint32(signExtend(payload>>8, 8)) & 0xFFFF
			words[i] = hi<<16 | lo
			i++
		case fpcRepBytes:
			b := uint32(payload)
			words[i] = b | b<<8 | b<<16 | b<<24
			i++
		case fpcUncompr:
			words[i] = uint32(payload)
			i++
		}
	}
	return putWords32(words), nil
}
