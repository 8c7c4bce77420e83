package sim

import (
	"strings"
	"testing"

	"lattecc/internal/invariant"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/trace"
)

// countingData is testData that counts renders, in total and per line.
type countingData struct {
	renders int
	perLine map[uint64]int
}

func (d *countingData) Line(lineAddr uint64) []byte {
	d.renders++
	d.perLine[lineAddr]++
	return testData{}.Line(lineAddr)
}

// countingWL runs testWorkload's kernels over one countingData.
type countingWL struct {
	testWorkload
	data *countingData
}

func (w countingWL) Data() trace.DataSource { return w.data }

// TestRunRendersEachLineAtMostOnce: without an SC trainer, an
// Uncompressed run renders no line and a Static-BDI run renders each
// distinct line once, however often it is filled; the two SMs share the
// run's size memo.
func TestRunRendersEachLineAtMostOnce(t *testing.T) {
	prev := invariant.SetActive(false)
	defer invariant.SetActive(prev)
	// Each warp loops three times over 256 lines: more than the 128-line
	// L1 holds, so lines are filled again on every pass.
	base := testWorkload{name: "thrash", blocks: 8, warps: 4, iters: 768, alu: 1, wsLines: 256, spread: 16}
	for _, c := range []struct {
		name    string
		f       ControllerFactory
		maxEach int
	}{
		{"Uncompressed", baselineFactory, 0},
		{"Static-BDI", bdiFactory, 1},
	} {
		w := countingWL{base, &countingData{perLine: map[uint64]int{}}}
		res := New(smallConfig(), w, c.f).Run()
		if distinct := uint64(8*4*16 + 256); res.Cache.Fills < 2*distinct {
			t.Fatalf("%s: %d fills of at most %d lines: too few refills", c.name, res.Cache.Fills, distinct)
		}
		for la, n := range w.data.perLine {
			if n > c.maxEach {
				t.Fatalf("%s: line %d rendered %d times, want at most %d", c.name, la, n, c.maxEach)
			}
		}
		if c.maxEach > 0 && w.data.renders == 0 {
			t.Errorf("%s: %d fills rendered nothing", c.name, res.Cache.Fills)
		}
	}
}

// TestLaunchCountersCheckedUnderParanoid: the paranoid layer recounts
// launchBlock's occupancy counters, so a drifted counter halts the run.
func TestLaunchCountersCheckedUnderParanoid(t *testing.T) {
	prev := invariant.SetActive(true)
	defer invariant.SetActive(prev)
	w := testWorkload{name: "waves", blocks: 40, warps: 4, iters: 2, alu: 1, wsLines: 4, spread: 8}
	run(t, smallConfig(), w, bdiFactory) // many launch waves, all consistent

	s := New(smallConfig(), w, func(int) modes.Controller { return policy.NewStatic(modes.None, "u", 256, 10) })
	s.sms[0].residentWarps++
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, "resident warps") {
			t.Fatalf("drifted counter: recovered %q, want an occupancy violation", r)
		}
	}()
	s.Run()
}
