package cache

import (
	"math/bits"

	"lattecc/internal/compress"
)

// SizeMemo holds the compressed sizes the stateless codecs (BDI, FPC,
// BPC, C-PACK) measured, by line address, so a run renders and measures
// each distinct line once instead of once per fill. That is sound
// because a run's line data is a pure function of the line address
// (trace.DataSource must be deterministic per address) and stores never
// change it, and a stateless codec's Measure is a pure function of the
// data. SC's sizes depend on its code book, so SC never uses the memo;
// the memo holds instead the one scratch every SC of the run rebuilds
// its code book in.
//
// One memo serves every L1 of one run; the SMs tick serially, so it
// needs no lock, and no two SC rebuilds overlap. It must not outlive
// the run's data source.
type SizeMemo struct {
	tables    [4]*sizeTable // BDI, FPC, BPC, C-PACK
	scScratch compress.SCScratch
}

// NewSizeMemo returns an empty memo.
func NewSizeMemo() *SizeMemo { return &SizeMemo{} }

// table returns codec's size table, or nil for a nil memo and for a
// codec whose sizes depend on more than the line (SC, unknown codecs).
func (m *SizeMemo) table(codec compress.Codec) *sizeTable {
	if m == nil {
		return nil
	}
	var i int
	switch codec.(type) {
	case *compress.BDI:
		i = 0
	case *compress.FPC:
		i = 1
	case *compress.BPC:
		i = 2
	case *compress.CPACK:
		i = 3
	default:
		return nil
	}
	if m.tables[i] == nil {
		m.tables[i] = newSizeTable()
	}
	return m.tables[i]
}

// memoEntry packs a stateless codec's result into a size-table entry,
// size<<1 | raw; stateless codecs report generation 0.
func memoEntry(enc compress.Encoded) uint16 {
	e := uint16(enc.Size) << 1
	if enc.Raw {
		e |= 1
	}
	return e
}

// sizeTable maps line addresses to memo entries. It is an open-addressed
// table with linear probing from a Fibonacci hash, at most 3/4 full,
// that keeps keys and entries in two packed arrays: 10 bytes a slot,
// where a Go map of the same types takes 16, which keeps a run's
// allocations from growing with its memo. Entries are never deleted.
type sizeTable struct {
	keys  []uint64 // invalidTag marks a free slot
	vals  []uint16
	n     int
	shift uint
}

func newSizeTable() *sizeTable {
	t := &sizeTable{}
	t.alloc(16)
	return t
}

// alloc gives the table size free slots; size is a power of two.
func (t *sizeTable) alloc(size int) {
	t.keys = make([]uint64, size)
	for i := range t.keys {
		t.keys[i] = invalidTag
	}
	t.vals = make([]uint16, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// slot returns lineAddr's slot, or the free slot that ends its probe
// run. Fibonacci hashing spreads strided line addresses, which low-bit
// masking would pile into one run.
//
//lint:hotpath
func (t *sizeTable) slot(lineAddr uint64) int {
	mask := len(t.keys) - 1
	i := int(lineAddr * 0x9E3779B97F4A7C15 >> t.shift)
	for t.keys[i] != lineAddr && t.keys[i] != invalidTag {
		i = (i + 1) & mask
	}
	return i
}

// get returns lineAddr's entry and whether it is present.
//
//lint:hotpath
func (t *sizeTable) get(lineAddr uint64) (uint16, bool) {
	i := t.slot(lineAddr)
	return t.vals[i], t.keys[i] == lineAddr
}

// set records lineAddr's entry.
//
//lint:hotpath
func (t *sizeTable) set(lineAddr uint64, e uint16) {
	i := t.slot(lineAddr)
	if t.keys[i] != lineAddr {
		if 4*(t.n+1) > 3*len(t.keys) {
			t.grow()
			i = t.slot(lineAddr)
		}
		t.keys[i] = lineAddr
		t.n++
	}
	t.vals[i] = e
}

// grow doubles the table and reinserts every entry.
func (t *sizeTable) grow() {
	keys, vals := t.keys, t.vals
	t.alloc(2 * len(keys))
	for j, k := range keys {
		if k != invalidTag {
			i := t.slot(k)
			t.keys[i], t.vals[i] = k, vals[j]
		}
	}
}
