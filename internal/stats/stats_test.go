package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningMean(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Fatal("empty mean must be 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		r.Add(v)
	}
	if r.Mean() != 2.5 || r.Count() != 4 || r.Sum() != 10 {
		t.Fatalf("mean=%v count=%v sum=%v", r.Mean(), r.Count(), r.Sum())
	}
	r.Reset()
	if r.Count() != 0 || r.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA must be uninitialized")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample sets value, got %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("EWMA = %v, want 15", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on alpha 0")
		}
	}()
	NewEWMA(0)
}

func TestSeriesDownsampling(t *testing.T) {
	s := NewSeries("x", 16)
	for i := 0; i < 10000; i++ {
		s.Add(uint64(i), float64(i))
	}
	if s.Len() > 16 {
		t.Fatalf("series length %d exceeds budget 16", s.Len())
	}
	pts := s.Points()
	if len(pts) < 4 {
		t.Fatalf("too few points kept: %d", len(pts))
	}
	// Monotone input must stay monotone after averaging.
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Cycle < pts[i-1].Cycle {
			t.Fatalf("downsampled series not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	// Values must stay within the input range.
	for _, p := range pts {
		if p.Value < 0 || p.Value > 9999 {
			t.Fatalf("point value %v out of input range", p.Value)
		}
	}
}

func TestSeriesDownsamplePreservesMeanQuick(t *testing.T) {
	f := func(seed uint32) bool {
		s := NewSeries("q", 8)
		n := int(seed%1000) + 50
		var sum float64
		for i := 0; i < n; i++ {
			v := float64((int(seed) + i*7919) % 100)
			sum += v
			s.Add(uint64(i), v)
		}
		var got float64
		for _, p := range s.Points() {
			got += p.Value
		}
		gotMean := got / float64(s.Len())
		// Downsampling by pair-averaging keeps the mean within the value range.
		return gotMean >= 0 && gotMean <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	// Zero inputs are clamped, not propagated to 0.
	if g := Geomean([]float64{0, 4}); g <= 0 {
		t.Fatalf("geomean with zero = %v, want positive", g)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 6}); m != 4 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean(nil) = %v", m)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("speedup", 1.19234)
	tab.AddRow("long-name-row", 42)
	out := tab.String()
	if !strings.Contains(out, "1.192") {
		t.Fatalf("float formatting missing: %q", out)
	}
	if !strings.Contains(out, "long-name-row") || !strings.Contains(out, "42") {
		t.Fatalf("row content missing: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+sep+2 rows, got %d lines", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("plain", 1.5)
	tab.AddRow(`quote"inside`, "with,comma")
	out := tab.CSV()
	want := "a,b\nplain,1.500\n\"quote\"\"inside\",\"with,comma\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
	if len(tab.Rows()) != 2 || tab.Header()[1] != "b" {
		t.Fatal("accessors wrong")
	}
}

func TestSparkline(t *testing.T) {
	var pts []Point
	for i := 0; i < 100; i++ {
		pts = append(pts, Point{Cycle: uint64(i), Value: float64(i % 10)})
	}
	out := Sparkline(pts, 20)
	if out == "" {
		t.Fatal("empty sparkline")
	}
	if !strings.Contains(out, "..") || !strings.Contains(out, "[") {
		t.Fatalf("range annotation missing: %q", out)
	}
	// Width respected: 20 rune columns plus the annotation.
	runes := []rune(strings.Split(out, "  [")[0])
	if len(runes) != 20 {
		t.Fatalf("got %d columns, want 20", len(runes))
	}
	if Sparkline(nil, 10) != "" {
		t.Fatal("nil points must render empty")
	}
	// Flat series: all columns at the lowest level, no division by zero.
	flat := Sparkline([]Point{{0, 5}, {1, 5}, {2, 5}}, 10)
	if !strings.Contains(flat, "▁▁▁") {
		t.Fatalf("flat series wrong: %q", flat)
	}
}
