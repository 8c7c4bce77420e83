package compress

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file freezes the original map-and-heap SC code-book builder as a
// reference: the in-place builder in sc.go must produce the same code
// book, symbol for symbol and bit for bit, or every simulated result
// that depends on SC line sizes would drift.

// refHuffTable is the reference builder's output: the full code book
// as a map, plus the canonical decode structures.
type refHuffTable struct {
	codes      map[uint32]huffCode
	escape     huffCode
	firstCode  [maxCodeLen + 1]uint64
	firstIndex [maxCodeLen + 1]int
	countAtLen [maxCodeLen + 1]int
	symbols    []huffSymbol
}

// refBuildHuffTable is the original buildHuffTable: symbols from a map
// sorted by value, heap-based lengths, sort.Slice canonical order.
func refBuildHuffTable(counts map[uint32]uint16) *refHuffTable {
	type sym struct {
		value  uint32
		escape bool
		weight uint64
	}
	syms := make([]sym, 0, len(counts)+1)
	for v, c := range counts {
		syms = append(syms, sym{value: v, weight: uint64(c)})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].value < syms[j].value })
	syms = append(syms, sym{escape: true, weight: 1})
	if len(syms) < 2 {
		return nil
	}

	weights := make([]uint64, len(syms))
	for i, s := range syms {
		weights[i] = s.weight
	}
	lengths := refHuffLengths(weights)
	for tooLong(lengths) {
		for i := range weights {
			weights[i] = weights[i]/2 + 1
		}
		lengths = refHuffLengths(weights)
	}

	idx := make([]int, len(syms))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if lengths[idx[a]] != lengths[idx[b]] {
			return lengths[idx[a]] < lengths[idx[b]]
		}
		return idx[a] < idx[b]
	})

	t := &refHuffTable{codes: make(map[uint32]huffCode, len(syms))}
	t.symbols = make([]huffSymbol, len(syms))
	var code uint64
	var prevLen uint
	for rank, i := range idx {
		l := lengths[i]
		if l == 0 {
			l = 1
		}
		code <<= l - prevLen
		prevLen = l
		hc := huffCode{bits: code, len: l}
		if syms[i].escape {
			t.escape = hc
		} else {
			t.codes[syms[i].value] = hc
		}
		t.symbols[rank] = huffSymbol{value: syms[i].value, escape: syms[i].escape}
		if t.countAtLen[l] == 0 {
			t.firstCode[l] = code
			t.firstIndex[l] = rank
		}
		t.countAtLen[l]++
		code++
	}
	return t
}

// refHuffLengths is the original binary-heap Huffman construction,
// ordered by (weight, slab index).
func refHuffLengths(weights []uint64) []uint {
	n := len(weights)
	lengths := make([]uint, n)
	if n == 0 {
		return lengths
	}
	nodes := make([]huffNode, n, 2*n-1)
	for i, w := range weights {
		nodes[i] = huffNode{weight: w, sym: int32(i), left: -1, right: -1}
	}
	less := func(a, b int32) bool {
		if nodes[a].weight != nodes[b].weight {
			return nodes[a].weight < nodes[b].weight
		}
		return a < b
	}
	h := make([]int32, n)
	for i := range h {
		h[i] = int32(i)
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			c := l
			if r := l + 1; r < len(h) && less(h[r], h[l]) {
				c = r
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	pop := func() int32 {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(0)
		return top
	}
	for len(h) > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, huffNode{weight: nodes[a].weight + nodes[b].weight, left: a, right: b, sym: -1})
		h = append(h, int32(len(nodes)-1))
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	root := h[0]
	for i := int(root); i >= 0; i-- {
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

// codeBook renders the reference table the way SC.CodeBook does.
func (t *refHuffTable) codeBook() []CodeEntry {
	var out []CodeEntry
	for l := uint(1); l <= maxCodeLen; l++ {
		for i := 0; i < t.countAtLen[l]; i++ {
			sym := t.symbols[t.firstIndex[l]+i]
			out = append(out, CodeEntry{Value: sym.value, Escape: sym.escape, Bits: t.firstCode[l] + uint64(i), Len: l})
		}
	}
	return out
}

// size is the reference encoded size of a line: code lengths from the
// map, escapes plus 32-bit literals, rounded up to bytes, raw at or
// above a full line.
func (t *refHuffTable) size(line []byte) (int, bool) {
	var nbit uint
	for _, v := range words32(line) {
		if c, ok := t.codes[v]; ok {
			nbit += c.len
		} else {
			nbit += t.escape.len + 32
		}
	}
	size := (int(nbit) + 7) / 8
	if size >= LineSize {
		return LineSize, true
	}
	return size, false
}

// fibSkewed is a Fibonacci run starting 1, 2 (so the escape's weight
// of 1 does not split it into two interleaved chains), clamped to the
// 12-bit VFT limit.
func fibSkewed() []uint16 {
	out := []uint16{1, 2}
	for out[len(out)-1] < vftCounterMax {
		out = append(out, min(out[len(out)-1]+out[len(out)-2], vftCounterMax))
	}
	return out
}

// vftKinds generate n (value, count) distributions within the VFT's
// limits: at most VFTEntries distinct values, counts in 1..4095.
var vftKinds = []struct {
	name  string
	count func(rng *rand.Rand, i, n int) uint16
}{
	{"random", func(rng *rand.Rand, _, _ int) uint16 { return uint16(1 + rng.Intn(vftCounterMax)) }},
	{"few-distinct", func(rng *rand.Rand, _, _ int) uint16 { return []uint16{1, 7, vftCounterMax}[rng.Intn(3)] }},
	{"pow2", func(rng *rand.Rand, _, _ int) uint16 { return 1 << rng.Intn(12) }},
	// The Fibonacci head makes a deep chain; hundreds of saturated
	// values above it push it past maxCodeLen, so flattening runs.
	{"fibonacci", func(_ *rand.Rand, i, _ int) uint16 {
		fib := fibSkewed()
		if i < len(fib) {
			return fib[i]
		}
		return vftCounterMax
	}},
}

// distinctValues returns n distinct pseudo-random 32-bit values.
func distinctValues(rng *rand.Rand, n int) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := rng.Uint32()
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestHuffLengthsMatchHeapReference: the two-queue construction must
// produce the heap construction's lengths for every weight vector,
// ties included, from one builder reused across shrinking and growing
// inputs.
func TestHuffLengthsMatchHeapReference(t *testing.T) {
	b := newHuffBuilder(VFTEntries + 1)
	rng := rand.New(rand.NewSource(3))
	var fib []uint64
	for _, c := range fibSkewed() {
		fib = append(fib, uint64(c))
	}
	fixed := [][]uint64{
		{}, {5}, {1, 1}, {3, 3, 3, 3, 3}, fib,
		{1 << 40, 1, 1 << 20, 1, 1 << 30},
	}
	for _, w := range fixed {
		if got, want := b.huffLengths(w), refHuffLengths(w); !equalLengths(got, want) {
			t.Fatalf("weights %v: lengths %v, heap reference %v", w, got, want)
		}
	}
	for _, n := range []int{1025, 600, 2, 3, 64, 1, 1025, 17, 900} {
		for _, span := range []int{1, 4, 4096, 1 << 30} {
			w := make([]uint64, n)
			for i := range w {
				w[i] = uint64(1 + rng.Intn(span))
			}
			if got, want := b.huffLengths(w), refHuffLengths(w); !equalLengths(got, want) {
				t.Fatalf("n=%d span=%d: lengths differ from the heap reference", n, span)
			}
		}
	}
}

func equalLengths(a, b []uint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSCRebuildMatchesReference rebuilds one SC over VFT contents of
// every kind, shrinking from a full VFT to a single value and growing
// back, and checks each code book and the line sizes it yields against
// the frozen reference. Reusing one codec catches stale tails left in
// its symbol slice and code index by a larger earlier book.
func TestSCRebuildMatchesReference(t *testing.T) {
	sc := NewSC()
	rng := rand.New(rand.NewSource(11))
	sizes := []int{VFTEntries, VFTEntries - 1, 700, 256, 64, 17, 3, 1, 2, 40, 511, 600, VFTEntries}
	flattened := false
	for step, n := range sizes {
		kind := vftKinds[step%len(vftKinds)]
		if n >= 600 && step%2 == 0 {
			kind = vftKinds[3] // the large Fibonacci books are the ones that flatten
		}
		values := distinctValues(rng, n)
		counts := make(map[uint32]uint16, n)
		for i, v := range values {
			c := kind.count(rng, i, n)
			counts[v] = c
			for k := uint16(0); k < c; k++ {
				sc.vft.Observe(v)
			}
		}
		ref := refBuildHuffTable(counts)
		if tooLong(refHuffLengths(symbolWeights(counts))) {
			flattened = true
		}
		if !sc.Rebuild() {
			t.Fatalf("step %d: rebuild with %d values reported no code book", step, n)
		}

		got, want := sc.CodeBook(), ref.codeBook()
		if len(got) != len(want) {
			t.Fatalf("step %d (%s, %d values): %d code-book entries, reference %d", step, kind.name, n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d (%s, %d values): entry %d = %+v, reference %+v", step, kind.name, n, i, got[i], want[i])
			}
		}

		for trial := 0; trial < 200; trial++ {
			line := make([]byte, LineSize)
			for w := 0; w < WordsPerLine; w++ {
				v := values[rng.Intn(n)]
				if rng.Intn(4) == 0 {
					v = rng.Uint32() // mostly escapes
				}
				binary.LittleEndian.PutUint32(line[w*4:], v)
			}
			size, raw := ref.size(line)
			m, enc := sc.Measure(line), sc.Compress(line)
			if m.Size != size || m.Raw != raw || enc.Size != size || enc.Raw != raw {
				t.Fatalf("step %d trial %d: Measure %d/%v, Compress %d/%v, reference %d/%v",
					step, trial, m.Size, m.Raw, enc.Size, enc.Raw, size, raw)
			}
		}
	}
	if !flattened {
		t.Fatal("no distribution made the length-flattening loop run")
	}
}

// symbolWeights is the reference builder's initial weight vector:
// counts in value order, then the escape's weight of 1.
func symbolWeights(counts map[uint32]uint16) []uint64 {
	values := make([]uint32, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	w := make([]uint64, 0, len(values)+1)
	for _, v := range values {
		w = append(w, uint64(counts[v]))
	}
	return append(w, 1)
}

// TestBuildMatchesReferenceUnclamped feeds the builder 16-bit counts the
// VFT could never hold: skews far past the length bound, which the
// flattening loop must bring back exactly as the reference does.
func TestBuildMatchesReferenceUnclamped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fib := map[uint32]uint16{}
	a, b := uint16(1), uint16(1)
	for i := uint32(0); i < 30; i++ {
		fib[i*7919] = a
		a, b = b, a+b
	}
	geometric := map[uint32]uint16{}
	for i := uint32(0); i < 40; i++ {
		geometric[i] = uint16(1 + (1<<15)>>(i%16) + rng.Intn(3))
	}
	for name, counts := range map[string]map[uint32]uint16{"fibonacci": fib, "geometric": geometric} {
		got, want := scFromCounts(counts).CodeBook(), refBuildHuffTable(counts).codeBook()
		if !slices.Equal(got, want) {
			t.Errorf("%s: code book differs from the reference\n got %v\nwant %v", name, got, want)
		}
	}
}
