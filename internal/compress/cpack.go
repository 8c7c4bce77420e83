package compress

import "fmt"

// CPACK implements C-PACK (Cache Packer, Chen et al.) dictionary
// compression with zero-line detection (the "CPACK+Z" configuration of
// Table I). The line is scanned word by word; each 32-bit word is encoded
// as one of six patterns against a 16-entry dictionary of recently seen
// words, exploiting temporal value locality within the line. Table I
// models an 8-cycle decompression latency.
//
// Patterns (code | payload):
//
//	00         zzzz — all-zero word
//	01         xxxx — uncompressed word (pushed into the dictionary)
//	10  + idx  mmmm — full dictionary match
//	1100 + b   zzzx — word with only the low byte nonzero
//	1101 + idx+b    mmxx — dictionary match on upper 2 bytes, low 2 literal
//	1110 + idx+b    mmmx — dictionary match on upper 3 bytes, low 1 literal
type CPACK struct{}

// NewCPACK returns the C-PACK+Z codec.
func NewCPACK() *CPACK { return &CPACK{} }

// Name implements Codec.
func (*CPACK) Name() string { return "CPACK-Z" }

// CompLatency implements Codec.
func (*CPACK) CompLatency() int { return 6 }

// DecompLatency implements Codec (Table I).
func (*CPACK) DecompLatency() int { return 8 }

const cpackDictSize = 16
const cpackIdxBits = 4

// Compress implements Codec.
func (*CPACK) Compress(line []byte) Encoded {
	var w bitWriter
	enc := cpackEncode(line, &w)
	enc.Data = w.buf
	return enc
}

// Measure implements Codec: the same encode core against a counting
// writer, so the reported size is bit-exact with Compress.
//
//lint:hotpath
func (*CPACK) Measure(line []byte) Encoded {
	w := bitWriter{countOnly: true}
	return cpackEncode(line, &w)
}

// cpackEncode is the shared encode core behind Compress and Measure: it
// writes the line's stream to w and returns its size. The stream's
// first byte is a software marker (0xFF for a zero line, else 0) that
// the hardware keeps in the tag, so it is not accounted.
//
//lint:hotpath
func cpackEncode(line []byte, w *bitWriter) Encoded {
	checkLine(line)
	if isZeroLine(line) {
		// Zero-line detection: a single flag, stored in the tag. Account
		// one byte so the size stays nonzero for the sub-block math.
		w.WriteBits(0xFF, 8)
		return sized(1)
	}
	words := words32(line)
	var dict [cpackDictSize]uint32
	dictLen := 0
	push := func(v uint32) {
		// FIFO replacement, as in the C-PACK hardware.
		copy(dict[1:], dict[:cpackDictSize-1])
		dict[0] = v
		if dictLen < cpackDictSize {
			dictLen++
		}
	}
	w.WriteBits(0, 8) // non-zero-line marker byte for the software stream
	for _, v := range words {
		switch {
		case v == 0:
			w.WriteBits(0b00, 2)
		case cpackFind(dict[:dictLen], v, 0xFFFFFFFF) >= 0:
			idx := cpackFind(dict[:dictLen], v, 0xFFFFFFFF)
			w.WriteBits(0b10, 2)
			w.WriteBits(uint64(idx), cpackIdxBits)
		case v&0xFFFFFF00 == 0:
			w.WriteBits(0b1100, 4)
			w.WriteBits(uint64(v&0xFF), 8)
			push(v)
		case cpackFind(dict[:dictLen], v, 0xFFFFFF00) >= 0:
			idx := cpackFind(dict[:dictLen], v, 0xFFFFFF00)
			w.WriteBits(0b1110, 4)
			w.WriteBits(uint64(idx), cpackIdxBits)
			w.WriteBits(uint64(v&0xFF), 8)
			push(v)
		case cpackFind(dict[:dictLen], v, 0xFFFF0000) >= 0:
			idx := cpackFind(dict[:dictLen], v, 0xFFFF0000)
			w.WriteBits(0b1101, 4)
			w.WriteBits(uint64(idx), cpackIdxBits)
			w.WriteBits(uint64(v&0xFFFF), 16)
			push(v)
		default:
			w.WriteBits(0b01, 2)
			w.WriteBits(uint64(v), 32)
			push(v)
		}
	}
	return sized(w.SizeBytes() - 1)
}

// cpackFind returns the index of the first dictionary entry equal to v
// under the given mask, or -1.
func cpackFind(dict []uint32, v, mask uint32) int {
	for i, d := range dict {
		if d&mask == v&mask {
			return i
		}
	}
	return -1
}

// Decompress implements Codec.
func (*CPACK) Decompress(enc Encoded) ([]byte, error) {
	if err := decodeFault("cpack"); err != nil {
		return nil, err
	}
	if len(enc.Data) == 0 {
		return nil, fmt.Errorf("cpack: empty stream")
	}
	if enc.Data[0] == 0xFF {
		return make([]byte, LineSize), nil
	}
	r := bitReader{buf: enc.Data, pos: 8}
	var dict [cpackDictSize]uint32
	dictLen := 0
	push := func(v uint32) {
		copy(dict[1:], dict[:cpackDictSize-1])
		dict[0] = v
		if dictLen < cpackDictSize {
			dictLen++
		}
	}
	readIdx := func() (int, error) {
		idx, err := r.ReadBits(cpackIdxBits)
		if err != nil {
			return 0, err
		}
		if int(idx) >= dictLen {
			return 0, fmt.Errorf("cpack: dictionary index %d out of range %d", idx, dictLen)
		}
		return int(idx), nil
	}
	var words [WordsPerLine]uint32
	for i := 0; i < WordsPerLine; i++ {
		c, err := r.ReadBits(2)
		if err != nil {
			return nil, fmt.Errorf("cpack: %w", err)
		}
		switch c {
		case 0b00: // zero word
		case 0b01:
			v, err := r.ReadBits(32)
			if err != nil {
				return nil, fmt.Errorf("cpack: %w", err)
			}
			words[i] = uint32(v)
			push(words[i])
		case 0b10:
			idx, err := readIdx()
			if err != nil {
				return nil, err
			}
			words[i] = dict[idx]
		case 0b11:
			sub, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("cpack: %w", err)
			}
			subSub, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("cpack: %w", err)
			}
			switch sub<<1 | subSub {
			case 0b00: // 1100 zzzx
				b, err := r.ReadBits(8)
				if err != nil {
					return nil, fmt.Errorf("cpack: %w", err)
				}
				words[i] = uint32(b)
				push(words[i])
			case 0b01: // 1101 mmxx
				idx, err := readIdx()
				if err != nil {
					return nil, err
				}
				lo, err := r.ReadBits(16)
				if err != nil {
					return nil, fmt.Errorf("cpack: %w", err)
				}
				words[i] = dict[idx]&0xFFFF0000 | uint32(lo)
				push(words[i])
			case 0b10: // 1110 mmmx
				idx, err := readIdx()
				if err != nil {
					return nil, err
				}
				b, err := r.ReadBits(8)
				if err != nil {
					return nil, fmt.Errorf("cpack: %w", err)
				}
				words[i] = dict[idx]&0xFFFFFF00 | uint32(b)
				push(words[i])
			default:
				return nil, fmt.Errorf("cpack: reserved code 1111")
			}
		}
	}
	return putWords32(words), nil
}
