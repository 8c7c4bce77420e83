package cache

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lattecc/internal/compress"
	"lattecc/internal/invariant"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/workload"
)

// countingSource renders lines from a workload data source and counts
// how many it was asked for.
type countingSource struct {
	data    *workload.Data
	buf     []byte
	renders int
}

func newCountingSource(regions []workload.Region) *countingSource {
	return &countingSource{data: workload.NewData(regions), buf: make([]byte, 128)}
}

func (s *countingSource) Line(lineAddr uint64) []byte {
	s.renders++
	s.data.LineInto(s.buf, lineAddr)
	return s.buf
}

// fillTestRegions mixes a BDI-friendly and an incompressible region.
var fillTestRegions = []workload.Region{
	{Start: 0, Lines: 256, Style: workload.StyleStrideInt, Seed: 1},
	{Start: 256, Lines: 256, Style: workload.StyleRandom, Seed: 2},
}

// fillLoop fills n lines cycling over distinct lines, so each is filled
// n/distinct times, and returns the source's render count.
func fillLoop(c *Cache, src *countingSource, n, distinct int) int {
	for i := 0; i < n; i++ {
		c.Fill(uint64(i%distinct)*128, src, uint64(i))
	}
	return src.renders
}

// steadyState turns the paranoid checks off for the test: they render
// and compress every codec fill on purpose.
func steadyState(t *testing.T) {
	prev := invariant.SetActive(false)
	t.Cleanup(func() { invariant.SetActive(prev) })
}

func TestFillRendersOnlyWhenNeeded(t *testing.T) {
	steadyState(t)
	const n, distinct = 2000, 400
	for _, tc := range []struct {
		name string
		mode modes.Mode
		want int // renders over n fills
	}{
		{"Uncompressed", modes.None, 0},
		{"Static-BDI", modes.LowLat, distinct},
		{"Static-SC", modes.HighCap, n}, // the SC trainer reads every fill
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewL1(testConfig(), policy.NewStatic(tc.mode, tc.name, 256, 10), NewSizeMemo(nil), Buffers{})
			if got, want := c.TrainsHighCap(), tc.mode == modes.HighCap; got != want {
				t.Fatalf("TrainsHighCap = %v, want %v", got, want)
			}
			src := newCountingSource(fillTestRegions)
			if got := fillLoop(c, src, n, distinct); got != tc.want {
				t.Errorf("%d fills of %d lines rendered %d lines, want %d", n, distinct, got, tc.want)
			}
		})
	}
}

// TestFillMemoSharedAcrossCaches: every L1 of a run shares one memo, so
// a line one cache measured is not rendered again by another.
func TestFillMemoSharedAcrossCaches(t *testing.T) {
	steadyState(t)
	memo := NewSizeMemo(nil)
	src := newCountingSource(fillTestRegions)
	a := NewL1(testConfig(), policy.NewStatic(modes.LowLat, "a", 256, 10), memo, Buffers{})
	b := NewL1(testConfig(), policy.NewStatic(modes.LowLat, "b", 256, 10), memo, Buffers{})
	fillLoop(a, src, 300, 300)
	if got := fillLoop(b, src, 300, 300); got != 300 {
		t.Errorf("second cache rendered %d more lines, want 0", got-300)
	}
	if a.Stats() != b.Stats() {
		t.Errorf("memoised fills diverge:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	// A cache built without a memo measures every fill.
	src.renders = 0
	cfg := testConfig()
	cfg.Codecs[modes.HighCap] = nil
	c := New(cfg, policy.NewStatic(modes.LowLat, "c", 256, 10))
	if got := fillLoop(c, src, 300, 100); got != 300 {
		t.Errorf("memo-less cache rendered %d lines over 300 fills", got)
	}
}

// TestSCScratchSharedAcrossCaches: the L1s of one run rebuild their SC
// code books in the memo's one scratch, so the second L1's first
// rebuild allocates only its own code book (a 32 KB code index and 8 KB
// of canonical symbols), not a second scratch.
func TestSCScratchSharedAcrossCaches(t *testing.T) {
	steadyState(t)
	memo := NewSizeMemo(nil)
	src := newCountingSource(fillTestRegions)
	a := NewL1(testConfig(), policy.NewStatic(modes.HighCap, "a", 256, 10), memo, Buffers{})
	b := NewL1(testConfig(), policy.NewStatic(modes.HighCap, "b", 256, 10), memo, Buffers{})
	fillLoop(a, src, 512, 512)
	fillLoop(b, src, 512, 512)
	first := heapBytes(func() { a.trainer.Rebuild() })
	second := heapBytes(func() { b.trainer.Rebuild() })
	if second > 48<<10 || second >= first {
		t.Errorf("first rebuilds allocate %d then %d bytes; the second should hold only its code book (<= %d)", first, second, 48<<10)
	}
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMemoMatchesMeasure fills sampled lines of every workload region
// through each stateless codec twice: the first fill records the size,
// the second must come from the memo without rendering, and both must
// account exactly what Measure reports. Under paranoid mode every fill
// renders, and the second pass runs the memo cross-check instead.
func TestMemoMatchesMeasure(t *testing.T) {
	codecs := []compress.Codec{compress.NewBDI(), compress.NewFPC(), compress.NewBPC(), compress.NewCPACK()}
	specs := 0
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec, ok := w.(*workload.Spec)
		if !ok {
			continue
		}
		specs++
		src := newCountingSource(spec.Regions)
		for _, codec := range codecs {
			cfg := testConfig()
			cfg.Codecs[modes.LowLat] = codec
			c := NewL1(cfg, policy.NewStatic(modes.LowLat, "s", 256, 10), NewSizeMemo(nil), Buffers{})
			if c.sizes[modes.LowLat] == nil {
				t.Fatalf("%s: no size table", codec.Name())
			}
			for _, r := range spec.Regions {
				step := max(r.Lines/64, 1)
				for la := r.Start; la < r.Start+r.Lines; la += step {
					want := codec.Measure(src.data.Line(la))
					for pass := 0; pass < 2; pass++ {
						before, renders := c.Stats(), src.renders
						mode := c.Fill(la*128, src, 0)
						got := c.Stats().CompressedSize - before.CompressedSize
						if got != uint64(want.Size) || (mode == modes.None) != want.Raw {
							t.Fatalf("%s %s line %d pass %d: size %d mode %v, Measure size %d raw %v",
								name, codec.Name(), la, pass, got, mode, want.Size, want.Raw)
						}
						if pass == 1 && !invariant.Active() && src.renders != renders {
							t.Fatalf("%s %s line %d: memoised fill rendered the line", name, codec.Name(), la)
						}
					}
				}
			}
		}
	}
	if specs == 0 {
		t.Fatal("no workload specs found")
	}
}

// TestTagArrayMirrorsLines drives random fills, hits, writes and
// flushes and checks after each that a tag is present exactly where its
// line is valid.
func TestTagArrayMirrorsLines(t *testing.T) {
	c := NewL1(testConfig(), policy.NewStatic(modes.LowLat, "s", 256, 10), NewSizeMemo(nil), Buffers{})
	src := newCountingSource(fillTestRegions)
	for i := uint64(0); i < 5000; i++ {
		addr := (i * 7919 % 512) * 128
		switch i % 5 {
		case 0, 1:
			if !c.Access(addr, i).Hit {
				c.Fill(addr, src, i)
			}
		case 2:
			c.Fill(addr, src, i)
		case 3:
			c.WriteTouch(addr, i)
		case 4:
			if i%500 == 4 {
				c.Flush()
			}
		}
		for si := range c.sets {
			s := &c.sets[si]
			for j := range s.lines {
				if s.lines[j].valid != (s.tags[j] != invalidTag) {
					t.Fatalf("step %d set %d entry %d: valid %v, tag %#x", i, si, j, s.lines[j].valid, s.tags[j])
				}
			}
		}
	}
}

// TestParanoidFillChecksMemo: paranoid fills render and compress every
// codec fill, and a memo entry that disagrees with Compress halts the
// run.
func TestParanoidFillChecksMemo(t *testing.T) {
	prev := invariant.SetActive(true)
	defer invariant.SetActive(prev)
	c := NewL1(testConfig(), policy.NewStatic(modes.LowLat, "s", 256, 10), NewSizeMemo(nil), Buffers{})
	src := newCountingSource(fillTestRegions)
	if got := fillLoop(c, src, 100, 10); got != 100 {
		t.Fatalf("paranoid fills rendered %d of 100 lines", got)
	}
	e, _ := c.sizes[modes.LowLat].get(3)
	c.sizes[modes.LowLat].set(3, e^1<<1) // corrupt line 3's size
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, "memoised size") {
			t.Fatalf("corrupt memo entry: recovered %q, want a memo violation", r)
		}
	}()
	c.Fill(3*128, src, 0)
}

// TestSizeTableMatchesMap drives a size table with random sets over
// small and strided key pools, which force collisions, wrap-around
// probe runs and growth, and checks every lookup against a Go map. The
// second pass runs on a table built on the first's arrays, which must
// start empty at the first's size.
func TestSizeTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab *sizeTable
	for pass := 0; pass < 2; pass++ {
		prev := tab
		tab = newSizeTable(prev)
		if prev != nil && (len(tab.keys) != len(prev.keys) || &tab.keys[0] != &prev.keys[0]) {
			t.Fatalf("table on a finished one's arrays has %d slots, want its %d, same array", len(tab.keys), len(prev.keys))
		}
		model := map[uint64]uint16{}
		for step := 0; step < 50000; step++ {
			k := uint64(rng.Intn(3000)) * uint64(1+rng.Intn(3)*64)
			e, ok := tab.get(k)
			if want, wantOK := model[k]; ok != wantOK || (ok && e != want) {
				t.Fatalf("pass %d step %d: get(%d) = %d, %v; model %d, %v", pass, step, k, e, ok, want, wantOK)
			}
			v := uint16(rng.Intn(257))
			tab.set(k, v)
			model[k] = v
			if tab.n != len(model) || 4*tab.n > 3*len(tab.keys) {
				t.Fatalf("pass %d step %d: %d entries in %d slots, model %d", pass, step, tab.n, len(tab.keys), len(model))
			}
		}
	}
}
