package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// adversarialLines are seeds chosen to sit on codec decision
// boundaries: every heuristic (BDI delta width, FPC pattern match, SC
// dictionary hit rate) should flip somewhere in this set.
func adversarialLines() [][]byte {
	var lines [][]byte

	// All-distinct 32-bit words: nothing for a dictionary or
	// base-delta scheme to exploit; codecs must fall back to raw
	// without expanding past LineSize.
	distinct := make([]byte, LineSize)
	for i := 0; i < LineSize/4; i++ {
		binary.LittleEndian.PutUint32(distinct[i*4:], 0x9E3779B9*uint32(i+1))
	}
	lines = append(lines, distinct)

	// Sign-boundary deltas: values alternating around 0 and around
	// int32 min/max, where BDI's signed-delta width check is easiest
	// to get wrong.
	signs := make([]byte, LineSize)
	vals := []uint32{0, 0xFFFFFFFF, 1, 0xFFFFFFFE, 0x7FFFFFFF, 0x80000000, 0x80000001, 0x7FFFFFFE}
	for i := 0; i < LineSize/4; i++ {
		binary.LittleEndian.PutUint32(signs[i*4:], vals[i%len(vals)])
	}
	lines = append(lines, signs)

	// Denormal floats: tiny subnormal float64s whose exponent field is
	// zero but mantissa is not — the corner FPC-style float patterns
	// tend to mishandle.
	denorm := make([]byte, LineSize)
	for i := 0; i < LineSize/8; i++ {
		binary.LittleEndian.PutUint64(denorm[i*8:], math.Float64bits(math.SmallestNonzeroFloat64*float64(i+1)))
	}
	lines = append(lines, denorm)

	// Negative-zero / infinity bit patterns in alternating words.
	weird := make([]byte, LineSize)
	for i := 0; i < LineSize/8; i++ {
		bits := math.Float64bits(math.Inf(1 - 2*(i%2)))
		if i%3 == 0 {
			bits = math.Float64bits(math.Copysign(0, -1))
		}
		binary.LittleEndian.PutUint64(weird[i*8:], bits)
	}
	lines = append(lines, weird)

	return lines
}

// fuzzLine pads or truncates arbitrary fuzz input to one cache line.
func fuzzLine(data []byte) []byte {
	line := make([]byte, LineSize)
	copy(line, data)
	return line
}

// FuzzRoundTrip feeds arbitrary line contents through every codec:
// compression must succeed, report a sane size, and decompress back to
// the exact input, and Measure must report Compress's Size, Raw and
// Generation without a stream.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, LineSize))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xAB, 0x00, 0xCD, 0x01}, 32))
	for _, line := range adversarialLines() {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line := fuzzLine(data)
		sc := NewSC()
		sc.Train(line)
		sc.Rebuild()
		for _, c := range []Codec{NewBDI(), NewFPC(), NewCPACK(), NewBPC(), sc} {
			enc := c.Compress(line)
			if enc.Size <= 0 || enc.Size > LineSize {
				t.Fatalf("%s: size %d out of range", c.Name(), enc.Size)
			}
			if m := c.Measure(line); m.Size != enc.Size || m.Raw != enc.Raw || m.Generation != enc.Generation || m.Data != nil {
				t.Fatalf("%s: Measure (size %d, raw %v, gen %d, %d data bytes) != Compress (size %d, raw %v, gen %d)",
					c.Name(), m.Size, m.Raw, m.Generation, len(m.Data), enc.Size, enc.Raw, enc.Generation)
			}
			dec, err := c.Decompress(enc)
			if err != nil {
				t.Fatalf("%s: decompress own output: %v", c.Name(), err)
			}
			if !bytes.Equal(dec, line) {
				t.Fatalf("%s: round trip mismatch", c.Name())
			}
		}
	})
}

// FuzzSCTrainMismatch drives SC's train/rebuild/compress cycle with a
// training line that differs from the compressed line. SC must stay
// exact via its escape path when the dictionary matches nothing, and
// its generation tag must fence off every encoding made under a
// superseded code book.
func FuzzSCTrainMismatch(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{9, 9, 9}, false)
	f.Add(bytes.Repeat([]byte{0xAA, 0xBB}, 64), bytes.Repeat([]byte{0xCC}, LineSize), true)
	for _, line := range adversarialLines() {
		f.Add(line, bytes.Repeat([]byte{0x5A}, LineSize), true)
	}
	f.Fuzz(func(t *testing.T, train, data []byte, retrain bool) {
		trainLine := fuzzLine(train)
		line := fuzzLine(data)

		sc := NewSC()
		sc.Train(trainLine)
		sc.Rebuild()

		enc := sc.Compress(line)
		if enc.Size <= 0 || enc.Size > LineSize {
			t.Fatalf("sc: size %d out of range", enc.Size)
		}
		dec, err := sc.Decompress(enc)
		if err != nil {
			t.Fatalf("sc: decompress own output: %v", err)
		}
		if !bytes.Equal(dec, line) {
			t.Fatal("sc: round trip mismatch with foreign training line")
		}

		if retrain {
			sc.Train(line)
			if !sc.Rebuild() {
				return // code book unchanged; old encodings stay valid
			}
			// Raw escapes carry their bytes verbatim and stay valid;
			// dictionary-coded lines under an old book must be refused.
			if !enc.Raw && enc.Generation != sc.Generation() {
				if _, err := sc.Decompress(enc); err == nil {
					t.Fatal("sc: decoded a stale-generation line without error")
				}
			}
			// The new book must still round-trip fresh encodings.
			enc2 := sc.Compress(line)
			dec2, err := sc.Decompress(enc2)
			if err != nil || !bytes.Equal(dec2, line) {
				t.Fatalf("sc: round trip after retrain: %v", err)
			}
		}
	})
}

// FuzzDecodeRobustness feeds arbitrary byte streams to every decoder:
// corrupt input must produce an error or a line, never a panic or an
// out-of-range result.
func FuzzDecodeRobustness(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 140))
	// A valid BDI stream as a seed so mutations explore near-valid space.
	valid := NewBDI().Compress(fuzzLine([]byte{9, 9, 9})).Data
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewSC()
		sc.Train(fuzzLine([]byte{1}))
		sc.Rebuild()
		for _, c := range []Codec{NewBDI(), NewFPC(), NewCPACK(), NewBPC(), sc} {
			dec, err := c.Decompress(Encoded{Data: data})
			if err == nil && len(dec) != LineSize {
				t.Fatalf("%s: accepted stream but returned %d bytes", c.Name(), len(dec))
			}
		}
	})
}
