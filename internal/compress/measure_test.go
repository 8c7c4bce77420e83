package compress

import (
	"math/rand"
	"testing"
)

// TestMeasureMatchesCompress: Measure is the sizing contract of the
// cache's fill path — for every codec and every line class it must
// report exactly the Size/Raw/Generation that Compress produces, while
// never materialising a stream.
func TestMeasureMatchesCompress(t *testing.T) {
	for _, c := range testCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			for name, gen := range lineGenerators {
				for trial := 0; trial < 50; trial++ {
					line := gen(rng)
					enc := c.Compress(line)
					m := c.Measure(line)
					if m.Size != enc.Size || m.Raw != enc.Raw || m.Generation != enc.Generation {
						t.Fatalf("%s/%s trial %d: Measure (size %d, raw %v, gen %d) != Compress (size %d, raw %v, gen %d)",
							c.Name(), name, trial, m.Size, m.Raw, m.Generation, enc.Size, enc.Raw, enc.Generation)
					}
					if m.Data != nil {
						t.Fatalf("%s/%s: Measure materialised a %d-byte stream", c.Name(), name, len(m.Data))
					}
				}
			}
		})
	}
}

// TestMeasureMatchesCompressUntrainedSC: before the first rebuild SC
// stores raw; Measure must agree on that path too.
func TestMeasureMatchesCompressUntrainedSC(t *testing.T) {
	sc := NewSC()
	rng := rand.New(rand.NewSource(5))
	line := lineGenerators["random"](rng)
	enc := sc.Compress(line)
	m := sc.Measure(line)
	if m.Size != enc.Size || m.Raw != enc.Raw || m.Generation != enc.Generation {
		t.Fatalf("untrained SC: Measure %+v disagrees with Compress size %d raw %v gen %d",
			m, enc.Size, enc.Raw, enc.Generation)
	}
}

// TestMeasureAllocationFree is the runtime half of the escape gate: every
// codec's Measure must run without a single heap allocation, on both a
// compressible and an incompressible line.
func TestMeasureAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	lines := [][]byte{
		make([]byte, LineSize),            // zero
		lineGenerators["stride"](rng),     // compressible
		lineGenerators["random"](rng),     // incompressible
		lineGenerators["small-ints"](rng), // immediate-heavy
	}
	for _, c := range testCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for i, line := range lines {
				allocs := testing.AllocsPerRun(100, func() {
					_ = c.Measure(line)
				})
				if allocs != 0 {
					t.Errorf("line %d: Measure allocates %.1f times per call, want 0", i, allocs)
				}
			}
		})
	}
}

// TestSCRebuildAllocationFree: the code book and its build scratch are
// allocated on the first rebuild only; every later period's Train and
// Rebuild reuse them, whatever the size of the new book.
func TestSCRebuildAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lines := make([][]byte, 256)
	for i := range lines {
		lines[i] = lineGenerators["random"](rng) // fills the VFT: a full-size book
	}
	sc := NewSC()
	period := func() {
		for _, l := range lines {
			sc.Train(l)
		}
		sc.Rebuild()
	}
	period()
	if allocs := testing.AllocsPerRun(20, period); allocs != 0 {
		t.Errorf("Train+Rebuild allocates %.1f times per period after the first, want 0", allocs)
	}
	small := lineGenerators["small-ints"](rng)
	if allocs := testing.AllocsPerRun(20, func() {
		sc.Train(small)
		sc.Rebuild()
	}); allocs != 0 {
		t.Errorf("a small rebuild allocates %.1f times, want 0", allocs)
	}
}
