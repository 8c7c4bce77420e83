// Package stats provides the measurement primitives shared across the
// simulator: running averages, bounded time series for the paper's
// over-time figures, and aggregate helpers (geometric mean is
// the standard aggregation for speedups in architecture papers).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Running maintains a running mean without storing samples.
type Running struct {
	n   uint64
	sum float64
}

// Add records one sample.
func (r *Running) Add(v float64) { r.n++; r.sum += v }

// Mean returns the running mean, or 0 with no samples.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Count returns the number of samples.
func (r *Running) Count() uint64 { return r.n }

// Sum returns the sample sum.
func (r *Running) Sum() float64 { return r.sum }

// Reset clears the accumulator.
func (r *Running) Reset() { r.n, r.sum = 0, 0 }

// EWMA is an exponentially weighted moving average; the simulator uses it
// for slowly drifting quantities like observed miss latency.
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Add folds one sample into the average.
func (e *EWMA) Add(v float64) {
	if !e.init {
		e.v, e.init = v, true
		return
	}
	e.v = e.alpha*v + (1-e.alpha)*e.v
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.v }

// Initialized reports whether at least one sample has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// Point is one time-series sample.
type Point struct {
	Cycle uint64
	Value float64
}

// Series is a bounded time series. When the sample budget is exceeded the
// series halves its resolution by averaging adjacent pairs, so memory stays
// bounded over arbitrarily long runs while preserving shape — exactly what
// the paper's Figures 5 and 16 need.
type Series struct {
	Name   string
	maxLen int
	pts    []Point
	stride int // how many raw samples fold into one stored point
	seen   int // raw samples folded into sumC/sumV so far
	sumC   float64
	sumV   float64
}

// NewSeries returns a series that stores at most maxLen points.
func NewSeries(name string, maxLen int) *Series {
	if maxLen < 4 {
		maxLen = 4
	}
	return &Series{Name: name, maxLen: maxLen, stride: 1}
}

// RestoreSeries rebuilds a series from previously captured points — the
// persistent result store's deserialization path. The restored series
// holds exactly pts (Points returns them verbatim, so StateHash over the
// points is unchanged); it is a snapshot for reading, not a live
// accumulator, and further Add calls may downsample on a different
// cadence than the original.
func RestoreSeries(name string, pts []Point) *Series {
	maxLen := 2 * len(pts)
	if maxLen < 4 {
		maxLen = 4
	}
	return &Series{Name: name, maxLen: maxLen, stride: 1, pts: pts}
}

// Add appends a sample, downsampling if the budget is exceeded.
func (s *Series) Add(cycle uint64, v float64) {
	s.sumC += float64(cycle)
	s.sumV += v
	s.seen++
	if s.seen < s.stride {
		return
	}
	s.pts = append(s.pts, Point{Cycle: uint64(s.sumC / float64(s.seen)), Value: s.sumV / float64(s.seen)})
	s.sumC, s.sumV, s.seen = 0, 0, 0
	if len(s.pts) >= s.maxLen {
		half := make([]Point, 0, (len(s.pts)+1)/2)
		for i := 0; i+1 < len(s.pts); i += 2 {
			a, b := s.pts[i], s.pts[i+1]
			half = append(half, Point{Cycle: (a.Cycle + b.Cycle) / 2, Value: (a.Value + b.Value) / 2})
		}
		if len(s.pts)%2 == 1 {
			half = append(half, s.pts[len(s.pts)-1])
		}
		s.pts = half
		s.stride *= 2
	}
}

// Points returns the stored (possibly downsampled) samples.
func (s *Series) Points() []Point { return s.pts }

// Clone returns an independent copy of s: adding to either series
// leaves the other unchanged. A nil series clones to nil.
func (s *Series) Clone() *Series {
	if s == nil {
		return nil
	}
	c := *s
	c.pts = append([]Point(nil), s.pts...)
	return &c
}

// MarshalJSON emits the series as {"name":..., "points":[{...}]}.
func (s *Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name   string  `json:"name"`
		Points []Point `json:"points"`
	}{Name: s.Name, Points: s.pts})
}

// Len returns the stored point count (0 for a nil series).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.pts)
}

// Geomean returns the geometric mean of vs; zero and negative inputs are
// clamped to a small positive epsilon so a single pathological sample does
// not zero the aggregate.
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	const eps = 1e-9
	var acc float64
	for _, v := range vs {
		if v < eps {
			v = eps
		}
		acc += math.Log(v)
	}
	return math.Exp(acc / float64(len(vs)))
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Table renders aligned text tables for the experiment CLI output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// CSV renders the table as RFC-4180-ish CSV (cells containing commas or
// quotes are quoted), for piping experiment output into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Rows returns the formatted cell values (without the header).
func (t *Table) Rows() [][]string { return t.rows }

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Sparkline renders a series as a compact ASCII chart: one column per
// point bucket, eight height levels. It makes the over-time figures
// (paper Figures 5 and 16) legible directly in a terminal.
func Sparkline(pts []Point, width int) string {
	if len(pts) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	// Bucket points into width columns by index.
	cols := make([]float64, 0, width)
	if len(pts) <= width {
		for _, p := range pts {
			cols = append(cols, p.Value)
		}
	} else {
		per := float64(len(pts)) / float64(width)
		for c := 0; c < width; c++ {
			lo, hi := int(float64(c)*per), int(float64(c+1)*per)
			if hi > len(pts) {
				hi = len(pts)
			}
			if lo >= hi {
				lo = hi - 1
			}
			var sum float64
			for _, p := range pts[lo:hi] {
				sum += p.Value
			}
			cols = append(cols, sum/float64(hi-lo))
		}
	}
	min, max := cols[0], cols[0]
	for _, v := range cols {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	span := max - min
	for _, v := range cols {
		idx := 0
		if span > 0 {
			idx = int((v - min) / span * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	fmt.Fprintf(&b, "  [%.2f .. %.2f]", min, max)
	return b.String()
}
