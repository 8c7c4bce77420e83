package compress

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// testCodecs returns fresh instances of all five codecs. SC gets a trained
// code book seeded from a value dictionary so its compressing path is
// exercised, not just the raw fallback.
func testCodecs(t *testing.T) []Codec {
	t.Helper()
	sc := NewSC()
	rng := rand.New(rand.NewSource(7))
	dict := scTestDictionary()
	for i := 0; i < 200; i++ {
		sc.Train(lineFromDict(rng, dict))
	}
	if !sc.Rebuild() {
		t.Fatal("SC rebuild produced no code book")
	}
	return []Codec{NewBDI(), NewFPC(), NewCPACK(), NewBPC(), sc}
}

func scTestDictionary() []uint32 {
	dict := make([]uint32, 64)
	for i := range dict {
		dict[i] = uint32(i * 0x01010101)
	}
	return dict
}

func lineFromDict(rng *rand.Rand, dict []uint32) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], dict[rng.Intn(len(dict))])
	}
	return line
}

// lineGenerators produce cache lines with qualitatively different value
// characteristics; every codec must round-trip all of them.
var lineGenerators = map[string]func(rng *rand.Rand) []byte{
	"zero": func(*rand.Rand) []byte { return make([]byte, LineSize) },
	"random": func(rng *rand.Rand) []byte {
		line := make([]byte, LineSize)
		rng.Read(line)
		return line
	},
	"small-ints": func(rng *rand.Rand) []byte {
		line := make([]byte, LineSize)
		for i := 0; i < WordsPerLine; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], uint32(rng.Intn(256)))
		}
		return line
	},
	"pointers": func(rng *rand.Rand) []byte {
		line := make([]byte, LineSize)
		base := uint64(0x7FFE00000000) + uint64(rng.Intn(1<<20))*8
		for i := 0; i < LineSize/8; i++ {
			binary.LittleEndian.PutUint64(line[i*8:], base+uint64(rng.Intn(128))*8)
		}
		return line
	},
	"stride": func(rng *rand.Rand) []byte {
		line := make([]byte, LineSize)
		v := uint32(rng.Intn(1 << 24))
		stride := uint32(rng.Intn(64))
		for i := 0; i < WordsPerLine; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], v)
			v += stride
		}
		return line
	},
	"repeated-word": func(rng *rand.Rand) []byte {
		line := make([]byte, LineSize)
		v := rng.Uint32()
		for i := 0; i < WordsPerLine; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], v)
		}
		return line
	},
	"float-like": func(rng *rand.Rand) []byte {
		line := make([]byte, LineSize)
		for i := 0; i < WordsPerLine; i++ {
			// Shared exponent, noisy mantissa — typical FP32 array data.
			v := uint32(0x3F800000) | uint32(rng.Intn(1<<20))
			binary.LittleEndian.PutUint32(line[i*4:], v)
		}
		return line
	},
	"halfword": func(rng *rand.Rand) []byte {
		line := make([]byte, LineSize)
		for i := 0; i < WordsPerLine; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], uint32(rng.Intn(1<<16))<<16)
		}
		return line
	},
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, c := range testCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for name, gen := range lineGenerators {
				for trial := 0; trial < 50; trial++ {
					line := gen(rng)
					enc := c.Compress(line)
					if enc.Size <= 0 || enc.Size > LineSize {
						t.Fatalf("%s/%s: size %d out of range", c.Name(), name, enc.Size)
					}
					got, err := c.Decompress(enc)
					if err != nil {
						t.Fatalf("%s/%s: decompress: %v", c.Name(), name, err)
					}
					if !bytes.Equal(got, line) {
						t.Fatalf("%s/%s trial %d: round trip mismatch", c.Name(), name, trial)
					}
				}
			}
		})
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, c := range testCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(seed int64, mode uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				gens := []func(*rand.Rand) []byte{
					lineGenerators["random"], lineGenerators["small-ints"],
					lineGenerators["stride"], lineGenerators["pointers"],
					lineGenerators["float-like"],
				}
				line := gens[int(mode)%len(gens)](rng)
				enc := c.Compress(line)
				got, err := c.Decompress(enc)
				return err == nil && bytes.Equal(got, line)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCompressedSizeNeverExceedsLine(t *testing.T) {
	for _, c := range testCodecs(t) {
		rng := rand.New(rand.NewSource(1))
		for name, gen := range lineGenerators {
			for i := 0; i < 20; i++ {
				enc := c.Compress(gen(rng))
				if enc.Size > LineSize {
					t.Errorf("%s/%s: size %d > line size", c.Name(), name, enc.Size)
				}
			}
		}
	}
}

func TestZeroLineCompressesTiny(t *testing.T) {
	zero := make([]byte, LineSize)
	for _, c := range testCodecs(t) {
		if c.Name() == "SC" {
			continue // SC's zero-line size depends on the trained code book
		}
		enc := c.Compress(zero)
		if enc.Size > 32 {
			t.Errorf("%s: zero line compressed to %d bytes, want <= 32", c.Name(), enc.Size)
		}
	}
}

func TestBDIEncodings(t *testing.T) {
	cases := []struct {
		name string
		fill func([]byte)
		want bdiEncoding
	}{
		{"zeros", func(b []byte) {}, bdiZeros},
		{"rep8", func(b []byte) {
			for off := 0; off < LineSize; off += 8 {
				binary.LittleEndian.PutUint64(b[off:], 0xDEADBEEFCAFEF00D)
			}
		}, bdiRep8},
		{"b8d1", func(b []byte) {
			base := uint64(0x1000000000000)
			for i := 0; i < LineSize/8; i++ {
				binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i))
			}
		}, bdiB8D1},
		{"b4d1", func(b []byte) {
			base := uint32(0x10000000)
			for i := 0; i < LineSize/4; i++ {
				binary.LittleEndian.PutUint32(b[i*4:], base+uint32(i))
			}
		}, bdiB4D1},
		{"b2d1", func(b []byte) {
			base := uint16(0x4000)
			for i := 0; i < LineSize/2; i++ {
				binary.LittleEndian.PutUint16(b[i*2:], base+uint16(i%100))
			}
		}, bdiB2D1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line := make([]byte, LineSize)
			tc.fill(line)
			enc, _ := bdiCompress(line)
			if enc != tc.want {
				t.Fatalf("got encoding %v, want %v", enc, tc.want)
			}
		})
	}
}

func TestBDIImmediateMix(t *testing.T) {
	// Large bases mixed with small immediates is BDI's signature case: the
	// one-bit mask selects delta-from-base vs delta-from-zero per block.
	line := make([]byte, LineSize)
	base := uint32(0x80000000)
	for i := 0; i < WordsPerLine; i++ {
		if i%3 == 0 {
			binary.LittleEndian.PutUint32(line[i*4:], uint32(i)) // immediate
		} else {
			binary.LittleEndian.PutUint32(line[i*4:], base+uint32(i))
		}
	}
	bdi := NewBDI()
	enc := bdi.Compress(line)
	if enc.Raw {
		t.Fatal("immediate-mix line should compress under BDI")
	}
	got, err := bdi.Decompress(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line) {
		t.Fatal("round trip mismatch")
	}
	if enc.Size >= LineSize/2 {
		t.Errorf("b4d? encoding should at least halve the line, got %d", enc.Size)
	}
}

func TestBDIRatioOnStrideData(t *testing.T) {
	line := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], 0x0BAD0000+uint32(i*4))
	}
	enc := NewBDI().Compress(line)
	if r := enc.CompressionRatio(); r < 2.5 {
		t.Errorf("stride data should compress >= 2.5x under BDI, got %.2f (size %d)", r, enc.Size)
	}
}

func TestFPCPatterns(t *testing.T) {
	cases := []struct {
		v    uint32
		want uint64
	}{
		{0x00000007, fpcSE4},
		{0xFFFFFFF9, fpcSE4}, // -7
		{0x0000007F, fpcSE8},
		{0x00007FFF, fpcSE16},
		{0xABCD0000, fpcHalfZero},
		{0x00110022, fpcTwoSE8},
		{0x41414141, fpcRepBytes},
		{0x12345678, fpcUncompr},
	}
	for _, tc := range cases {
		p, _ := fpcMatch(tc.v)
		if p != tc.want {
			t.Errorf("fpcMatch(%#x) = %d, want %d", tc.v, p, tc.want)
		}
	}
}

func TestFPCZeroRunEncoding(t *testing.T) {
	// 32 zero words = 4 runs of 8 → 4 * (3+3) bits = 3 bytes.
	enc := NewFPC().Compress(make([]byte, LineSize))
	if enc.Size != 3 {
		t.Errorf("all-zero line FPC size = %d, want 3", enc.Size)
	}
}

func TestCPACKDictionaryReuse(t *testing.T) {
	// A line of few distinct full words should compress well via mmmm.
	line := make([]byte, LineSize)
	vals := []uint32{0xAABBCCDD, 0x11223344, 0x99887766}
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], vals[i%len(vals)])
	}
	c := NewCPACK()
	enc := c.Compress(line)
	if enc.Raw {
		t.Fatal("dictionary-friendly line should compress")
	}
	// 3 uncompressed (2+32) + 29 matches (2+4) = 276 bits = 35 bytes.
	if enc.Size > 40 {
		t.Errorf("size = %d, want <= 40", enc.Size)
	}
	got, err := c.Decompress(enc)
	if err != nil || !bytes.Equal(got, line) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestCPACKZeroLine(t *testing.T) {
	enc := NewCPACK().Compress(make([]byte, LineSize))
	if enc.Size != 1 {
		t.Errorf("zero line size = %d, want 1", enc.Size)
	}
}

func TestBPCPlanesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		var words [WordsPerLine]uint32
		for j := range words {
			words[j] = rng.Uint32()
		}
		base, planes := bpcPlanes(words)
		back := bpcUnplanes(base, planes)
		if back != words {
			t.Fatalf("plane transform not invertible at trial %d", i)
		}
	}
}

func TestBPCStrideCompressesWell(t *testing.T) {
	// Constant-stride data has constant deltas → one nonzero DBX plane
	// pattern; BPC should crush it.
	line := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], 0x10000+uint32(i)*12)
	}
	enc := NewBPC().Compress(line)
	if r := enc.CompressionRatio(); r < 6 {
		t.Errorf("stride data ratio %.2f, want >= 6 (size %d)", r, enc.Size)
	}
}

func TestSCLifecycle(t *testing.T) {
	sc := NewSC()
	// Before any rebuild: raw storage.
	line := make([]byte, LineSize)
	enc := sc.Compress(line)
	if !enc.Raw {
		t.Fatal("SC without code book must store raw")
	}

	rng := rand.New(rand.NewSource(5))
	dict := scTestDictionary()
	for i := 0; i < 500; i++ {
		sc.Train(lineFromDict(rng, dict))
	}
	if !sc.Rebuild() {
		t.Fatal("rebuild failed with trained VFT")
	}
	gen1 := sc.Generation()

	l := lineFromDict(rng, dict)
	enc = sc.Compress(l)
	if enc.Raw {
		t.Fatal("dictionary line should compress under trained SC")
	}
	if enc.CompressionRatio() < 2 {
		t.Errorf("dictionary line ratio %.2f, want >= 2", enc.CompressionRatio())
	}
	got, err := sc.Decompress(enc)
	if err != nil || !bytes.Equal(got, l) {
		t.Fatalf("round trip failed: %v", err)
	}

	// Rebuild invalidates old generations.
	sc.Train(l)
	sc.Rebuild()
	if sc.Generation() == gen1 {
		t.Fatal("generation must advance on rebuild")
	}
	if _, err := sc.Decompress(enc); err == nil {
		t.Fatal("stale-generation decode must fail")
	}
}

func TestSCEscapePath(t *testing.T) {
	sc := NewSC()
	dict := scTestDictionary()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		sc.Train(lineFromDict(rng, dict))
	}
	sc.Rebuild()
	// A line of values the code book has never seen: all escapes.
	line := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], 0xF0000000+uint32(i)*997)
	}
	enc := sc.Compress(line)
	got, err := sc.Decompress(enc)
	if err != nil || !bytes.Equal(got, line) {
		t.Fatalf("escape round trip failed: %v", err)
	}
}

func TestVFTSaturationAndCapacity(t *testing.T) {
	vft := NewVFT(4)
	for i := 0; i < 10; i++ {
		vft.Observe(uint32(i))
	}
	if vft.Len() != 4 {
		t.Fatalf("VFT admitted %d values, capacity 4", vft.Len())
	}
	for i := 0; i < vftCounterMax+100; i++ {
		vft.Observe(1)
	}
	counts := vft.AppendCounts(nil)
	for i := 1; i < len(counts); i++ {
		if counts[i-1].Value >= counts[i].Value {
			t.Fatalf("AppendCounts not sorted by value: %+v", counts)
		}
	}
	for _, vc := range counts {
		if vc.Value == 1 && vc.Count != vftCounterMax {
			t.Fatalf("counter = %d, want saturated %d", vc.Count, vftCounterMax)
		}
	}
}

// scFromCounts builds an SC code book straight from value counts,
// bypassing the VFT and its 12-bit saturation.
func scFromCounts(counts map[uint32]uint16) *SC {
	sc := NewSC()
	sc.scratch = newHuffBuilder(len(counts) + 1)
	sc.table = newHuffTable(len(counts) + 1)
	for v, c := range counts {
		sc.scratch.counts = append(sc.scratch.counts, ValueCount{Value: v, Count: c})
	}
	slices.SortFunc(sc.scratch.counts, func(a, b ValueCount) int { return cmp.Compare(a.Value, b.Value) })
	sc.scratch.build(sc.table)
	return sc
}

// codeOf returns the code-book entry for value v.
func codeOf(t *testing.T, book []CodeEntry, v uint32) CodeEntry {
	t.Helper()
	for _, e := range book {
		if !e.Escape && e.Value == v {
			return e
		}
	}
	t.Fatalf("value %d not in the code book", v)
	return CodeEntry{}
}

func TestHuffCanonicalDecode(t *testing.T) {
	sc := scFromCounts(map[uint32]uint16{10: 100, 20: 50, 30: 20, 40: 5, 50: 1})
	book := sc.CodeBook()
	if book == nil {
		t.Fatal("nil code book")
	}
	// More frequent symbols must not get longer codes.
	if c10, c50 := codeOf(t, book, 10), codeOf(t, book, 50); c10.Len > c50.Len {
		t.Errorf("code(10).len=%d > code(50).len=%d", c10.Len, c50.Len)
	}
	// Encode then decode each symbol.
	for _, c := range book {
		var w bitWriter
		w.WriteBits(c.Bits, c.Len)
		r := bitReader{buf: w.Bytes()}
		sym, err := sc.table.decodeSymbol(&r)
		if err != nil {
			t.Fatalf("decode %+v: %v", c, err)
		}
		if sym.escape != c.Escape || sym.value != c.Value {
			t.Fatalf("decode %+v: got %+v", c, sym)
		}
	}
}

func TestHuffLengthBound(t *testing.T) {
	// Fibonacci-like weights force maximal skew; lengths must stay bounded.
	counts := make(map[uint32]uint16)
	a, b := uint16(1), uint16(1)
	for i := uint32(0); i < 30; i++ {
		counts[i] = a
		a, b = b, a+b
		if b < a { // overflow
			b = vftCounterMax
		}
	}
	for _, c := range scFromCounts(counts).CodeBook() {
		if c.Len > maxCodeLen {
			t.Fatalf("code for %+v has length %d > bound %d", c, c.Len, maxCodeLen)
		}
	}
}

func TestBitWriterReader(t *testing.T) {
	var w bitWriter
	vals := []struct {
		v uint64
		n uint
	}{{1, 1}, {0b101, 3}, {0xFFFF, 16}, {0, 7}, {0x123456789A, 40}, {1, 64}}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	r := bitReader{buf: w.Bytes()}
	for i, x := range vals {
		got, err := r.ReadBits(x.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := x.v
		if x.n < 64 {
			want &= (1 << x.n) - 1
		}
		if got != want {
			t.Fatalf("read %d: got %#x want %#x", i, got, want)
		}
	}
	if _, err := r.ReadBits(64); err == nil {
		t.Fatal("reading past end must error")
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := bitReader{buf: []byte{0xAB}}
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("want error after stream end")
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		n    uint
		want int64
	}{
		{0xF, 4, -1}, {0x7, 4, 7}, {0x8, 4, -8},
		{0xFF, 8, -1}, {0x80, 8, -128}, {0x7F, 8, 127},
		{0x1FFFFFFFF, 33, -1},
	}
	for _, tc := range cases {
		if got := signExtend(tc.v, tc.n); got != tc.want {
			t.Errorf("signExtend(%#x, %d) = %d, want %d", tc.v, tc.n, got, tc.want)
		}
	}
}

func TestFitsSigned(t *testing.T) {
	if !fitsSigned(-128, 8) || fitsSigned(-129, 8) || !fitsSigned(127, 8) || fitsSigned(128, 8) {
		t.Fatal("fitsSigned 8-bit boundaries wrong")
	}
	if !fitsSigned(1<<40, 64) {
		t.Fatal("64-bit must fit anything")
	}
}

func TestEncodedCompressionRatio(t *testing.T) {
	if r := (Encoded{Size: 32}).CompressionRatio(); r != 4 {
		t.Errorf("ratio = %v, want 4", r)
	}
	if r := (Encoded{Size: 0}).CompressionRatio(); r != 1 {
		t.Errorf("zero-size ratio = %v, want 1 fallback", r)
	}
}

func TestDecompressCorruptStreams(t *testing.T) {
	for _, c := range testCodecs(t) {
		if _, err := c.Decompress(Encoded{Data: nil}); err == nil {
			t.Errorf("%s: empty stream must error", c.Name())
		}
	}
	if _, err := NewBDI().Decompress(Encoded{Data: []byte{byte(bdiB8D1), 1, 2}}); err == nil {
		t.Error("BDI truncated payload must error")
	}
	if _, err := NewBDI().Decompress(Encoded{Data: []byte{200}}); err == nil {
		t.Error("BDI unknown encoding must error")
	}
}

// decodeCorrupt feeds one corrupted encoding to a codec and enforces the
// robustness contract: the decoder must not panic or over-read, and must
// either report an error or return a full line. The payload carries no
// checksum, so corrupted streams that still parse may legally decode to
// different bytes — byte equality is NOT part of the contract here.
func decodeCorrupt(t *testing.T, c Codec, enc Encoded, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %s: decoder panicked: %v", c.Name(), what, r)
		}
	}()
	dec, err := c.Decompress(enc)
	if err != nil {
		return
	}
	if len(dec) != LineSize {
		t.Errorf("%s: %s: no error but %d-byte line", c.Name(), what, len(dec))
	}
}

// TestDecompressCorruptStreamSweep is the table-driven robustness sweep:
// every codec, a corpus of value classes, and for each resulting
// encoding (a) truncation to every prefix length and (b) a bit flip at
// every bit of every byte offset.
func TestDecompressCorruptStreamSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dict := scTestDictionary()
	corpus := [][]byte{
		make([]byte, LineSize), // all zeros
		lineFromDict(rng, dict),
		lineFromDict(rng, dict),
	}
	{ // repeated 8-byte pattern
		line := make([]byte, LineSize)
		for off := 0; off < LineSize; off += 8 {
			copy(line[off:], []byte{1, 2, 3, 4, 5, 6, 7, 8})
		}
		corpus = append(corpus, line)
	}
	{ // small-stride words, then uniform noise
		line := make([]byte, LineSize)
		for i := 0; i < WordsPerLine; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], 0x1000+uint32(i)*3)
		}
		corpus = append(corpus, line)
		noise := make([]byte, LineSize)
		rng.Read(noise)
		corpus = append(corpus, noise)
	}

	for _, c := range testCodecs(t) {
		for li, line := range corpus {
			enc := c.Compress(line)
			for cut := 0; cut < len(enc.Data); cut++ {
				trunc := enc
				trunc.Data = enc.Data[:cut]
				decodeCorrupt(t, c, trunc, fmt.Sprintf("line %d truncated to %d/%d bytes", li, cut, len(enc.Data)))
			}
			for off := 0; off < len(enc.Data); off++ {
				for bit := 0; bit < 8; bit++ {
					flip := enc
					flip.Data = append([]byte(nil), enc.Data...)
					flip.Data[off] ^= 1 << bit
					decodeCorrupt(t, c, flip, fmt.Sprintf("line %d bit %d of byte %d flipped", li, bit, off))
				}
			}
		}
	}
}

func TestCodecLatenciesMatchTableI(t *testing.T) {
	want := map[string]int{"BDI": 2, "FPC": 5, "CPACK-Z": 8, "BPC": 11, "SC": 14}
	for _, c := range testCodecs(t) {
		if got := c.DecompLatency(); got != want[c.Name()] {
			t.Errorf("%s decompression latency = %d, want %d", c.Name(), got, want[c.Name()])
		}
	}
}
