package compress

import (
	"encoding/binary"
	"fmt"
)

// SC implements Huffman-coding based Statistical Compression (Arelakis &
// Stenström, "SC2"), as adapted for GPUs by the LATTE-CC paper
// (Section IV-C2). SC exploits temporal value locality: 32-bit values that
// recur across the working set receive short variable-length codes.
//
// The hardware organisation the paper models — and this codec mirrors — is:
//
//   - a 1024-entry value-frequency table (VFT) with 12-bit saturating
//     counters, trained on the values of inserted cache lines;
//   - a code-word table in the compressor and a decompression lookup table
//     (DeLUT), both (re)generated from the VFT at period boundaries;
//   - values absent from the code book escape to a literal encoding.
//
// Because a rebuild invalidates every line encoded under the old code
// book, Encoded values carry the code-book generation, and the cache
// flushes compressed lines when the controller requests the rebuild.
//
// Like the hardware tables, the code book is fixed-size: allocated on
// the first Rebuild and rewritten in place at every later one. In-place
// reuse is safe because each SM's cache owns its codecs, and Decompress
// rejects a line from an older generation before it reads the table.
// The scratch a book is built in is dead once Rebuild returns, so the
// codecs of one run share one (ShareScratch); a codec left alone makes
// its own on its first Rebuild.
type SC struct {
	vft        *VFT
	table      *huffTable
	scratch    *SCScratch
	generation uint64
}

// NewSC returns an SC codec with an empty value-frequency table and no
// code book. Until the first Rebuild, Compress stores lines raw (the
// hardware behaves identically while the first period's VFT trains).
func NewSC() *SC { return &SC{vft: NewVFT(VFTEntries)} }

// SCScratch is the working memory of a code-book rebuild. Its contents
// are dead between rebuilds, so SC codecs that never rebuild at the
// same time, such as the L1s of one run (whose SMs tick serially), can
// share one. The zero value is ready to use; it is sized on first use.
type SCScratch struct{ b huffBuilder }

// ShareScratch makes s rebuild in scratch instead of a scratch of its
// own. The caller must not let two codecs sharing it rebuild at once.
func (s *SC) ShareScratch(scratch *SCScratch) { s.scratch = scratch }

// Name implements Codec.
func (*SC) Name() string { return "SC" }

// CompLatency implements Codec (6 cycles, Section IV-C2).
func (*SC) CompLatency() int { return 6 }

// DecompLatency implements Codec (14 cycles, Section IV-C2).
func (*SC) DecompLatency() int { return 14 }

// Generation returns the current code-book generation. Lines encoded under
// older generations can no longer be decoded.
func (s *SC) Generation() uint64 { return s.generation }

// Train samples the 32-bit values of a line into the value-frequency
// table. The cache calls this on every insertion, matching the hardware
// VFT that snoops the fill path.
func (s *SC) Train(line []byte) {
	checkLine(line)
	for i := 0; i < LineSize; i += 4 {
		s.vft.Observe(binary.LittleEndian.Uint32(line[i:]))
	}
}

// Rebuild regenerates the Huffman code book from the current VFT contents,
// clears the VFT for the next period, and bumps the generation
// (Section IV-C2: the VFT is rebuilt during the final EP of each period).
// An empty VFT (a period with no sampled values) keeps the existing code
// book and generation — there is nothing to rebuild from, and invalidating
// lines for an unchanged book would be pure waste. It reports whether the
// code book changed (callers flush stale lines only in that case).
func (s *SC) Rebuild() bool {
	if s.vft.Len() == 0 {
		return false
	}
	if s.scratch == nil {
		s.scratch = new(SCScratch)
	}
	if s.table == nil {
		s.table = newHuffTable(s.vft.capacity + 1)
	}
	b := &s.scratch.b
	b.reserve(s.vft.capacity + 1)
	b.counts = s.vft.AppendCounts(b.counts[:0])
	s.vft.Reset()
	s.generation++
	b.build(s.table)
	return true
}

// Compress implements Codec. Each 32-bit word is emitted as its Huffman
// code, or as the escape code followed by a 32-bit literal when the value
// is not in the code book.
func (s *SC) Compress(line []byte) Encoded {
	checkLine(line)
	if s.table == nil {
		return Encoded{Data: append([]byte(nil), line...), Size: LineSize, Raw: true, Generation: s.generation}
	}
	var w bitWriter
	for i := 0; i < LineSize; i += 4 {
		v := binary.LittleEndian.Uint32(line[i:])
		if c := huffCode(s.table.lookup.get(v)); c != 0 {
			w.WriteBits(c.bits(), c.length())
		} else {
			esc := s.table.escape
			w.WriteBits(esc.bits(), esc.length())
			w.WriteBits(uint64(v), 32)
		}
	}
	size := w.SizeBytes()
	if size >= LineSize {
		return Encoded{Data: append([]byte(nil), line...), Size: LineSize, Raw: true, Generation: s.generation}
	}
	return Encoded{Data: w.Bytes(), Size: size, Generation: s.generation}
}

// Measure implements Codec: code-length sums from the code book, no
// bit stream. The rounding matches bitWriter.SizeBytes, so the result
// is bit-exact with Compress under the same generation.
//
//lint:hotpath
func (s *SC) Measure(line []byte) Encoded {
	checkLine(line)
	if s.table == nil {
		return Encoded{Size: LineSize, Raw: true, Generation: s.generation}
	}
	var nbit uint
	for i := 0; i < LineSize; i += 4 {
		if c := huffCode(s.table.lookup.get(binary.LittleEndian.Uint32(line[i:]))); c != 0 {
			nbit += c.length()
		} else {
			nbit += s.table.escape.length() + 32
		}
	}
	size := (int(nbit) + 7) / 8
	if size >= LineSize {
		return Encoded{Size: LineSize, Raw: true, Generation: s.generation}
	}
	return Encoded{Size: size, Generation: s.generation}
}

// Decompress implements Codec. It fails if the line was encoded under a
// different code-book generation — such lines must have been flushed.
func (s *SC) Decompress(enc Encoded) ([]byte, error) {
	if err := decodeFault("sc"); err != nil {
		return nil, err
	}
	if enc.Raw {
		if len(enc.Data) < LineSize {
			return nil, fmt.Errorf("sc: raw payload too short")
		}
		return append([]byte(nil), enc.Data[:LineSize]...), nil
	}
	if enc.Generation != s.generation {
		return nil, fmt.Errorf("sc: stale code book (line gen %d, current %d)", enc.Generation, s.generation)
	}
	if s.table == nil {
		return nil, fmt.Errorf("sc: no code book")
	}
	r := bitReader{buf: enc.Data}
	var words [WordsPerLine]uint32
	for i := range words {
		sym, err := s.table.decodeSymbol(&r)
		if err != nil {
			return nil, fmt.Errorf("sc: %w", err)
		}
		if sym.escape {
			lit, err := r.ReadBits(32)
			if err != nil {
				return nil, fmt.Errorf("sc: %w", err)
			}
			words[i] = uint32(lit)
		} else {
			words[i] = sym.value
		}
	}
	return putWords32(words), nil
}

// CodeEntry is one published code-book entry: the canonical Huffman code
// (Bits, MSB-first, Len bits long) for either a concrete 32-bit value or
// the escape symbol that prefixes 32-bit literals.
type CodeEntry struct {
	Value  uint32
	Escape bool
	Bits   uint64
	Len    uint
}

// CodeBook returns the current code book in canonical order (shortest
// codes first), or nil before the first rebuild. Independent reference
// decoders (internal/oracle) use it to decode SC streams bit by bit
// without sharing any of this codec's decode tables.
func (s *SC) CodeBook() []CodeEntry {
	if s.table == nil {
		return nil
	}
	t := s.table
	out := make([]CodeEntry, 0, len(t.symbols))
	for l := uint(1); l <= maxCodeLen; l++ {
		for i := 0; i < t.countAtLen[l]; i++ {
			sym := t.symbols[t.firstIndex[l]+i]
			out = append(out, CodeEntry{
				Value:  sym.value,
				Escape: sym.escape,
				Bits:   t.firstCode[l] + uint64(i),
				Len:    l,
			})
		}
	}
	return out
}

// VFTEntries is the value-frequency table capacity (Section IV-C2).
const VFTEntries = 1024

// vftCounterMax is the saturating limit of the 12-bit VFT counters.
const vftCounterMax = 1<<12 - 1

// VFT is a bounded value-frequency table with saturating counters. When
// full, unseen values are not admitted — matching a simple hardware table
// without replacement, which is the conservative choice. It is a
// valueTable whose payload is the count, which is never 0 once set.
type VFT struct {
	capacity int
	size     int
	table    valueTable
}

// NewVFT returns an empty VFT with the given entry capacity.
func NewVFT(capacity int) *VFT {
	return &VFT{capacity: capacity, table: newValueTable(capacity)}
}

// valueTable maps 32-bit values to nonzero 32-bit payloads: the VFT's
// counts and the code index's codes. Each slot is one word, value<<32 |
// payload, and payload 0 marks a free slot. It is open-addressed, not a
// Go map: Observe and Measure probe it once per 32-bit word of every
// line, and linear probing over a power-of-two slot array at least 4x
// the entry capacity costs a fraction of a map access while allocating
// nothing after construction.
type valueTable struct {
	slots []uint64
	mask  uint32
}

func newValueTable(entries int) valueTable {
	n := 16
	for n < 4*entries {
		n <<= 1
	}
	return valueTable{slots: make([]uint64, n), mask: uint32(n - 1)}
}

// hashSlot mixes v (murmur3 finalizer) into a starting probe index.
// Load factor stays below 1/4, so probe chains are short; the sequence
// is a pure function of the inserted values, preserving determinism.
func hashSlot(v, mask uint32) uint32 {
	v ^= v >> 16
	v *= 0x85ebca6b
	v ^= v >> 13
	v *= 0xc2b2ae35
	v ^= v >> 16
	return v & mask
}

// find returns v's slot, or the free slot that ends its probe run.
func (t *valueTable) find(v uint32) uint32 {
	i := hashSlot(v, t.mask)
	for s := t.slots[i]; uint32(s) != 0 && uint32(s>>32) != v; s = t.slots[i] {
		i = (i + 1) & t.mask
	}
	return i
}

// get returns v's payload, or 0 when v is absent.
func (t *valueTable) get(v uint32) uint32 { return uint32(t.slots[t.find(v)]) }

// put sets v's payload, which must be nonzero; the table must have room.
func (t *valueTable) put(v, payload uint32) {
	t.slots[t.find(v)] = uint64(v)<<32 | uint64(payload)
}

// Observe counts one occurrence of v, saturating at the 12-bit limit.
func (t *VFT) Observe(v uint32) {
	i := t.table.find(v)
	switch count := uint32(t.table.slots[i]); {
	case count == 0:
		if t.size < t.capacity {
			t.table.slots[i] = uint64(v)<<32 | 1
			t.size++
		}
	case count < vftCounterMax:
		t.table.slots[i]++
	}
}

// Len returns the number of tracked values.
func (t *VFT) Len() int { return t.size }

// ValueCount is one VFT entry: a tracked value and its saturating count.
type ValueCount struct {
	Value uint32
	Count uint16
}

// AppendCounts appends the tracked values and their counts to dst,
// sorted by value, and returns the extended slice. The sort's second
// buffer is the Len entries past the returned slice's end, so it
// allocates nothing when dst has room for 2·Len more entries.
//
//lint:hotpath
func (t *VFT) AppendCounts(dst []ValueCount) []ValueCount {
	start := len(dst)
	for _, s := range t.table.slots {
		if uint32(s) != 0 {
			dst = append(dst, ValueCount{Value: uint32(s >> 32), Count: uint16(s)})
		}
	}
	end := len(dst)
	dst = append(dst, dst[start:]...)
	sortByValue(dst[start:end], dst[end:])
	return dst[:end]
}

// sortByValue sorts a by value with an LSD radix sort over the value's
// four bytes, using buf (as long as a) as the second buffer. Each pass
// swaps the two, so after the fourth the result is back in a.
//
//lint:hotpath
func sortByValue(a, buf []ValueCount) {
	for shift := uint(0); shift < 32; shift += 8 {
		var start [256]int
		for _, e := range a {
			start[e.Value>>shift&0xff]++
		}
		pos := 0
		for d, c := range start {
			start[d] = pos
			pos += c
		}
		for _, e := range a {
			d := e.Value >> shift & 0xff
			buf[start[d]] = e
			start[d]++
		}
		a, buf = buf, a
	}
}

// Reset clears the table.
func (t *VFT) Reset() {
	clear(t.table.slots)
	t.size = 0
}

// huffCode is one canonical Huffman code packed as bits<<8 | length.
// Codes are at most maxCodeLen bits long, so it fits a valueTable
// payload, and every code in a book of two or more symbols is at least
// one bit long, so it is nonzero.
type huffCode uint32

func (c huffCode) bits() uint64 { return uint64(c >> 8) }

func (c huffCode) length() uint { return uint(c & 0xff) }

// huffSymbol is a decoded symbol: either a concrete value or the escape.
type huffSymbol struct {
	value  uint32
	escape bool
}

// huffTable is a canonical Huffman code book over 32-bit values plus one
// escape symbol, with a first-code decoding table (the DeLUT analogue).
// It is sized once for the largest book and rewritten by assign.
type huffTable struct {
	lookup valueTable // value -> huffCode, for the hot encode paths
	escape huffCode
	// canonical decode structures, indexed by code length 1..maxCodeLen
	firstCode  [maxCodeLen + 1]uint64
	firstIndex [maxCodeLen + 1]int
	countAtLen [maxCodeLen + 1]int
	symbols    []huffSymbol // in canonical order
}

// newHuffTable sizes a table for books of up to maxSymbols symbols; the
// escape is one of them but never enters the index.
func newHuffTable(maxSymbols int) *huffTable {
	return &huffTable{
		lookup:  newValueTable(maxSymbols - 1),
		symbols: make([]huffSymbol, 0, maxSymbols),
	}
}

// maxCodeLen bounds code lengths; frequencies are flattened until the
// bound holds, which mirrors the fixed-width DeLUT of the hardware.
const maxCodeLen = 24

// huffNode is a Huffman construction tree node. Nodes live in one slab,
// leaves first and then internal nodes in creation order, addressed by
// index; the index doubles as the tie-break, so ordering by (weight,
// index) is total and the merge sequence is deterministic.
type huffNode struct {
	weight      uint64
	left, right int32 // slab indices of children, -1 for leaves
	sym         int32 // leaf symbol index, -1 for internal
	depth       uint32
}

// huffBuilder is the scratch a code-book rebuild works in, sized once
// for the largest book (a full VFT plus the escape) and reused by every
// later rebuild.
type huffBuilder struct {
	counts     []ValueCount // VFT contents, sorted by value; room for twice as many, for AppendCounts
	weights    []uint64     // per symbol: the counts, then the escape
	lengths    []uint
	nodes      []huffNode
	order, tmp []int32 // leaf slab indices, sorted by (weight, index)
}

func newHuffBuilder(maxSymbols int) *huffBuilder {
	b := new(huffBuilder)
	b.reserve(maxSymbols)
	return b
}

// reserve sizes b for books of up to maxSymbols symbols.
func (b *huffBuilder) reserve(maxSymbols int) {
	if len(b.weights) >= maxSymbols {
		return
	}
	*b = huffBuilder{
		counts:  make([]ValueCount, 0, 2*(maxSymbols-1)),
		weights: make([]uint64, maxSymbols),
		lengths: make([]uint, maxSymbols),
		nodes:   make([]huffNode, 2*maxSymbols-1),
		order:   make([]int32, maxSymbols),
		tmp:     make([]int32, maxSymbols),
	}
}

// build writes into t the canonical, length-bounded Huffman code book
// for b.counts plus an escape symbol of weight 1. Symbol i is the i-th
// value in value order; the escape comes last.
//
//lint:hotpath
func (b *huffBuilder) build(t *huffTable) {
	n := len(b.counts) + 1
	weights := b.weights[:n]
	for i, c := range b.counts {
		weights[i] = uint64(c.Count)
	}
	weights[n-1] = 1
	lengths := b.huffLengths(weights)
	// Flatten frequencies until the length bound holds.
	for tooLong(lengths) {
		for i := range weights {
			weights[i] = weights[i]/2 + 1
		}
		lengths = b.huffLengths(weights)
	}
	t.assign(b.counts, lengths)
}

// assign fills t with canonical codes for the given lengths: codes are
// handed out in (length, symbol index) order, each length starting at
// (previous length's first code + its count) << 1. A counting sort over
// the length buckets places every symbol at its canonical rank.
//
//lint:hotpath
func (t *huffTable) assign(counts []ValueCount, lengths []uint) {
	t.countAtLen = [maxCodeLen + 1]int{}
	for _, l := range lengths {
		t.countAtLen[l]++
	}
	var code uint64
	rank := 0
	for l := 1; l <= maxCodeLen; l++ {
		t.firstCode[l] = code
		t.firstIndex[l] = rank
		code = (code + uint64(t.countAtLen[l])) << 1
		rank += t.countAtLen[l]
	}
	next := t.firstIndex
	t.symbols = t.symbols[:len(lengths)]
	clear(t.lookup.slots)
	for i, l := range lengths {
		r := next[l]
		next[l]++
		hc := huffCode((t.firstCode[l]+uint64(r-t.firstIndex[l]))<<8 | uint64(l))
		if i == len(counts) {
			t.escape = hc
			t.symbols[r] = huffSymbol{escape: true}
			continue
		}
		t.symbols[r] = huffSymbol{value: counts[i].Value}
		t.lookup.put(counts[i].Value, uint32(hc))
	}
}

// tooLong reports whether any code length exceeds the DeLUT bound.
//
//lint:hotpath
func tooLong(lengths []uint) bool {
	for _, l := range lengths {
		if l > maxCodeLen {
			return true
		}
	}
	return false
}

// huffLengths computes Huffman code lengths for the given weights into
// b.lengths, in linear time with the two-queue construction. Leaves
// are sorted once by (weight, index); internal nodes are created with
// nondecreasing weights, so they form a second sorted queue in slab
// order. Each merge pops the lighter head of the two queues, the leaf
// on a weight tie because its slab index is lower. That is the (weight,
// slab index) order a binary heap over the slab pops in, so the merge
// sequence, and every code length, matches the heap construction.
//
//lint:hotpath
func (b *huffBuilder) huffLengths(weights []uint64) []uint {
	n := len(weights)
	lengths := b.lengths[:n]
	if n == 0 {
		return lengths
	}
	nodes := b.nodes[:n]
	for i, w := range weights {
		nodes[i] = huffNode{weight: w, sym: int32(i), left: -1, right: -1}
	}
	leaves := sortLeaves(nodes, b.order[:n], b.tmp[:n])
	li, qi := 0, n
	for len(nodes) < 2*n-1 {
		var pair [2]int32
		for k := range pair {
			if li < n && (qi == len(nodes) || nodes[leaves[li]].weight <= nodes[qi].weight) {
				pair[k] = leaves[li]
				li++
			} else {
				pair[k] = int32(qi)
				qi++
			}
		}
		a, c := pair[0], pair[1]
		nodes = append(nodes, huffNode{weight: nodes[a].weight + nodes[c].weight, left: a, right: c, sym: -1})
	}
	// Children precede their parent in the slab, so one reverse pass from
	// the root assigns every leaf depth.
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := &nodes[i]
		if nd.sym >= 0 {
			lengths[nd.sym] = uint(nd.depth)
		} else {
			nodes[nd.left].depth = nd.depth + 1
			nodes[nd.right].depth = nd.depth + 1
		}
	}
	return lengths
}

// sortLeaves returns the leaf slab indices 0..len(order)-1 sorted by
// (weight, index), using order and tmp as the two buffers of a stable
// LSD radix sort over 8-bit digits of the weight. VFT counts are 12-bit,
// so that is two linear passes.
//
//lint:hotpath
func sortLeaves(nodes []huffNode, order, tmp []int32) []int32 {
	var top uint64
	for i := range order {
		order[i] = int32(i)
		top |= nodes[i].weight
	}
	for shift := uint(0); top>>shift != 0; shift += 8 {
		var start [256]int
		for _, i := range order {
			start[nodes[i].weight>>shift&0xff]++
		}
		pos := 0
		for d, c := range start {
			start[d] = pos
			pos += c
		}
		for _, i := range order {
			d := nodes[i].weight >> shift & 0xff
			tmp[start[d]] = i
			start[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// decodeSymbol reads one canonical code from the stream.
func (t *huffTable) decodeSymbol(r *bitReader) (huffSymbol, error) {
	var code uint64
	for l := uint(1); l <= maxCodeLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return huffSymbol{}, err
		}
		code = code<<1 | b
		if t.countAtLen[l] == 0 {
			continue
		}
		offset := int(code) - int(t.firstCode[l])
		if offset >= 0 && offset < t.countAtLen[l] {
			return t.symbols[t.firstIndex[l]+offset], nil
		}
	}
	return huffSymbol{}, fmt.Errorf("invalid Huffman code")
}
