package compress

import "fmt"

// BPC implements Bit-Plane Compression (Kim et al., ISCA 2016). BPC first
// takes word-to-word deltas across the line (delta transform), then
// rotates the resulting delta array into bit planes (DBP) and XORs
// neighbouring planes (DBX). The two transforms concentrate the entropy of
// numerically smooth data — array indices, pointers, fixed-stride floats —
// into a handful of nonzero planes that run-length encode extremely well.
// Table I models an 11-cycle decompression latency.
//
// Layout for a 128-byte line:
//
//	base   — the first 32-bit word, encoded with a small FPC-like table
//	deltas — 31 deltas of consecutive words, each a 33-bit signed value
//	DBP    — 33 bit planes, each 31 bits wide (plane k = bit k of deltas)
//	DBX    — DBX[k] = DBP[k] ^ DBP[k+1]; DBX[32] = DBP[32]
//
// Each DBX plane is encoded with the original paper's code table:
//
//	01    + 5b   run of 2-33 consecutive all-zero DBX planes
//	001          single all-zero DBX plane
//	00000        all-ones DBX plane
//	00001        DBP plane is zero (DBX nonzero)
//	00010 + 5b   two consecutive ones (position of the pair)
//	00011 + 5b   single one (position)
//	1     + 31b  uncompressed plane
type BPC struct{}

// NewBPC returns the BPC codec.
func NewBPC() *BPC { return &BPC{} }

// Name implements Codec.
func (*BPC) Name() string { return "BPC" }

// CompLatency implements Codec.
func (*BPC) CompLatency() int { return 8 }

// DecompLatency implements Codec (Table I).
func (*BPC) DecompLatency() int { return 11 }

const (
	bpcNumDeltas = WordsPerLine - 1 // 31
	bpcNumPlanes = 33               // 33-bit signed deltas
	bpcPlaneMask = (uint64(1) << bpcNumDeltas) - 1
)

// bpcPlanes computes the DBP bit planes of the line's delta array.
// planes[k] holds bit k of every delta; bit i of planes[k] corresponds to
// delta i.
func bpcPlanes(words [WordsPerLine]uint32) (base uint32, planes [bpcNumPlanes]uint64) {
	base = words[0]
	for i := 0; i < bpcNumDeltas; i++ {
		d := int64(words[i+1]) - int64(words[i]) // fits in 33 bits
		ud := uint64(d) & ((1 << bpcNumPlanes) - 1)
		for k := 0; k < bpcNumPlanes; k++ {
			planes[k] |= (ud >> k & 1) << i
		}
	}
	return base, planes
}

// bpcUnplanes inverts bpcPlanes.
func bpcUnplanes(base uint32, planes [bpcNumPlanes]uint64) [WordsPerLine]uint32 {
	var words [WordsPerLine]uint32
	words[0] = base
	for i := 0; i < bpcNumDeltas; i++ {
		var ud uint64
		for k := 0; k < bpcNumPlanes; k++ {
			ud |= (planes[k] >> i & 1) << k
		}
		d := signExtend(ud, bpcNumPlanes)
		words[i+1] = uint32(int64(words[i]) + d)
	}
	return words
}

// Compress implements Codec.
func (*BPC) Compress(line []byte) Encoded {
	var w bitWriter
	enc := bpcEncodeLine(line, &w)
	enc.Data = w.buf
	return enc
}

// Measure implements Codec: the same encode core against a counting
// writer, so the reported size is bit-exact with Compress.
//
//lint:hotpath
func (*BPC) Measure(line []byte) Encoded {
	w := bitWriter{countOnly: true}
	return bpcEncodeLine(line, &w)
}

// bpcEncodeLine is the shared encode core behind Compress and Measure:
// it writes the line's stream to w and returns its size.
//
//lint:hotpath
func bpcEncodeLine(line []byte, w *bitWriter) Encoded {
	checkLine(line)
	words := words32(line)
	base, dbp := bpcPlanes(words)

	bpcEncodeBase(w, base)

	// DBX planes, processed from the MSB plane downward so the decoder can
	// chain DBP[k] = DBX[k] ^ DBP[k+1] with DBP[33] == 0.
	var dbx [bpcNumPlanes]uint64
	for k := 0; k < bpcNumPlanes; k++ {
		if k == bpcNumPlanes-1 {
			dbx[k] = dbp[k]
		} else {
			dbx[k] = dbp[k] ^ dbp[k+1]
		}
	}
	for k := bpcNumPlanes - 1; k >= 0; {
		if dbx[k] == 0 {
			run := 1
			for k-run >= 0 && dbx[k-run] == 0 && run < 33 {
				run++
			}
			if run >= 2 {
				w.WriteBits(0b01, 2)
				w.WriteBits(uint64(run-2), 5)
			} else {
				w.WriteBits(0b001, 3)
			}
			k -= run
			continue
		}
		switch {
		case dbx[k] == bpcPlaneMask:
			w.WriteBits(0b00000, 5)
		case dbp[k] == 0:
			w.WriteBits(0b00001, 5)
		case bpcTwoConsecOnes(dbx[k]) >= 0:
			w.WriteBits(0b00010, 5)
			w.WriteBits(uint64(bpcTwoConsecOnes(dbx[k])), 5)
		case bpcSingleOne(dbx[k]) >= 0:
			w.WriteBits(0b00011, 5)
			w.WriteBits(uint64(bpcSingleOne(dbx[k])), 5)
		default:
			w.WriteBits(1, 1)
			w.WriteBits(dbx[k], bpcNumDeltas)
		}
		k--
	}
	return sized(w.SizeBytes())
}

// bpcTwoConsecOnes returns the bit position of the lower of exactly two
// consecutive set bits, or -1.
func bpcTwoConsecOnes(p uint64) int {
	for i := 0; i < bpcNumDeltas-1; i++ {
		if p == 0b11<<i {
			return i
		}
	}
	return -1
}

// bpcSingleOne returns the position of the only set bit, or -1.
func bpcSingleOne(p uint64) int {
	if p == 0 || p&(p-1) != 0 {
		return -1
	}
	for i := 0; i < bpcNumDeltas; i++ {
		if p == 1<<i {
			return i
		}
	}
	return -1
}

// Base-word encoding: a compact FPC-like table.
const (
	bpcBaseZero = 0b000
	bpcBaseSE4  = 0b001
	bpcBaseSE8  = 0b010
	bpcBaseSE16 = 0b011
	bpcBaseRaw  = 0b111
)

func bpcEncodeBase(w *bitWriter, base uint32) {
	s := int64(int32(base))
	switch {
	case base == 0:
		w.WriteBits(bpcBaseZero, 3)
	case fitsSigned(s, 4):
		w.WriteBits(bpcBaseSE4, 3)
		w.WriteBits(uint64(base)&0xF, 4)
	case fitsSigned(s, 8):
		w.WriteBits(bpcBaseSE8, 3)
		w.WriteBits(uint64(base)&0xFF, 8)
	case fitsSigned(s, 16):
		w.WriteBits(bpcBaseSE16, 3)
		w.WriteBits(uint64(base)&0xFFFF, 16)
	default:
		w.WriteBits(bpcBaseRaw, 3)
		w.WriteBits(uint64(base), 32)
	}
}

func bpcDecodeBase(r *bitReader) (uint32, error) {
	code, err := r.ReadBits(3)
	if err != nil {
		return 0, err
	}
	switch code {
	case bpcBaseZero:
		return 0, nil
	case bpcBaseSE4:
		v, err := r.ReadBits(4)
		return uint32(signExtend(v, 4)), err
	case bpcBaseSE8:
		v, err := r.ReadBits(8)
		return uint32(signExtend(v, 8)), err
	case bpcBaseSE16:
		v, err := r.ReadBits(16)
		return uint32(signExtend(v, 16)), err
	case bpcBaseRaw:
		v, err := r.ReadBits(32)
		return uint32(v), err
	default:
		return 0, fmt.Errorf("bpc: bad base code %b", code)
	}
}

// Decompress implements Codec.
func (*BPC) Decompress(enc Encoded) ([]byte, error) {
	if err := decodeFault("bpc"); err != nil {
		return nil, err
	}
	r := bitReader{buf: enc.Data}
	base, err := bpcDecodeBase(&r)
	if err != nil {
		return nil, fmt.Errorf("bpc: %w", err)
	}
	var dbp [bpcNumPlanes]uint64
	prevDBP := uint64(0) // DBP[33] == 0
	for k := bpcNumPlanes - 1; k >= 0; {
		b, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("bpc: %w", err)
		}
		if b == 1 { // uncompressed plane
			dbx, err := r.ReadBits(bpcNumDeltas)
			if err != nil {
				return nil, fmt.Errorf("bpc: %w", err)
			}
			dbp[k] = dbx ^ prevDBP
			prevDBP = dbp[k]
			k--
			continue
		}
		b2, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("bpc: %w", err)
		}
		if b2 == 1 { // 01: zero run
			runBits, err := r.ReadBits(5)
			if err != nil {
				return nil, fmt.Errorf("bpc: %w", err)
			}
			run := int(runBits) + 2
			for j := 0; j < run; j++ {
				if k < 0 {
					return nil, fmt.Errorf("bpc: zero run overflows planes")
				}
				dbp[k] = prevDBP // DBX == 0 => DBP[k] == DBP[k+1]
				prevDBP = dbp[k]
				k--
			}
			continue
		}
		b3, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("bpc: %w", err)
		}
		if b3 == 1 { // 001: single zero plane
			dbp[k] = prevDBP
			prevDBP = dbp[k]
			k--
			continue
		}
		// 000xx: five-bit codes
		sub, err := r.ReadBits(2)
		if err != nil {
			return nil, fmt.Errorf("bpc: %w", err)
		}
		var dbx uint64
		switch sub {
		case 0b00: // all ones
			dbx = bpcPlaneMask
			dbp[k] = dbx ^ prevDBP
		case 0b01: // DBP plane zero
			dbp[k] = 0
		case 0b10: // two consecutive ones
			pos, err := r.ReadBits(5)
			if err != nil {
				return nil, fmt.Errorf("bpc: %w", err)
			}
			dbx = 0b11 << pos
			dbp[k] = dbx ^ prevDBP
		case 0b11: // single one
			pos, err := r.ReadBits(5)
			if err != nil {
				return nil, fmt.Errorf("bpc: %w", err)
			}
			dbx = 1 << pos
			dbp[k] = dbx ^ prevDBP
		}
		prevDBP = dbp[k]
		k--
	}
	words := bpcUnplanes(base, dbp)
	return putWords32(words), nil
}
