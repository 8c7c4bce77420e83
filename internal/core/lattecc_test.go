package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"lattecc/internal/modes"
)

// testCfg uses the paper-literal layout (learning first, no warmup,
// dedicated sets follow in the adaptive phase) so the unit tests can
// reason about phase positions directly. The mid-period default layout
// has its own tests below.
func testCfg() Config {
	cfg := DefaultConfig(32)
	cfg.LearningStartEP = 0
	cfg.WarmupEPs = 0
	return cfg
}

func TestDedicatedSetLayout(t *testing.T) {
	c := New(testCfg())
	counts := map[modes.Mode]int{}
	for _, d := range c.dedicated {
		if d >= 0 {
			counts[modes.Mode(d)]++
		}
	}
	for _, m := range modes.All() {
		if counts[m] != 4 {
			t.Fatalf("mode %v has %d dedicated sets, want 4", m, counts[m])
		}
	}
}

func TestLearningPhaseForcesDedicatedModes(t *testing.T) {
	c := New(testCfg())
	for set, d := range c.dedicated {
		want := c.winner
		if d >= 0 {
			want = modes.Mode(d)
		}
		if got := c.InsertMode(set); got != want {
			t.Fatalf("set %d: InsertMode = %v, want %v", set, got, want)
		}
	}
}

func TestFollowersUseWinnerAfterLearning(t *testing.T) {
	c := New(testCfg())
	// Drive one EP of accesses to leave the learning phase.
	for i := uint64(0); i < c.cfg.EPAccesses; i++ {
		c.RecordAccess(int(i)%c.cfg.NumSets, false, modes.None, 0, i)
	}
	if c.learning() {
		t.Fatal("should have left learning phase")
	}
	for set := range c.dedicated {
		if got := c.InsertMode(set); got != c.winner {
			t.Fatalf("adaptive phase set %d: %v != winner %v", set, got, c.winner)
		}
	}
}

// driveEP pushes one EP of accesses with the given per-mode hit behaviour.
// hitFor[m] makes accesses to mode-m dedicated sets hit; follower sets miss.
func driveEP(c *Controller, hitFor map[modes.Mode]bool) modes.Directive {
	var dir modes.Directive
	var n uint64
	for n < c.cfg.EPAccesses {
		for set := 0; set < c.cfg.NumSets && n < c.cfg.EPAccesses; set++ {
			hit := false
			lineMode := modes.None
			if d := c.dedicated[set]; d >= 0 {
				m := modes.Mode(d)
				hit = hitFor[m]
				lineMode = m
			}
			d := c.RecordAccess(set, hit, lineMode, 0, n)
			if d.FlushHighCap || d.RebuildHighCap {
				dir = d
			}
			n++
		}
	}
	return dir
}

func TestWinnerPicksHighHitModeUnderHighTolerance(t *testing.T) {
	cfg := testCfg()
	c := New(cfg)
	// High tolerance hides even SC's latency.
	for i := 0; i < 100; i++ {
		c.RecordTolerance(50)
	}
	// HighCap sets hit, others miss → SC has best sampled hit rate.
	driveEP(c, map[modes.Mode]bool{modes.HighCap: true})
	if c.winner != modes.HighCap {
		t.Fatalf("winner = %v, want HighCap (hits dominate, latency hidden)", c.winner)
	}
}

func TestWinnerAvoidsHighCapUnderLowTolerance(t *testing.T) {
	cfg := testCfg()
	cfg.MissLatencyInit = 20 // misses barely cost more than an SC hit
	c := New(cfg)
	c.RecordTolerance(0) // no tolerance at all
	// All modes hit equally — the only differentiator is hit latency.
	driveEP(c, map[modes.Mode]bool{modes.None: true, modes.LowLat: true, modes.HighCap: true})
	if c.winner != modes.None {
		t.Fatalf("winner = %v, want None (equal hits, zero tolerance)", c.winner)
	}
}

func TestLatteVsCMPDisagreeWhenToleranceMatters(t *testing.T) {
	// Same observations; LATTE-CC knows the pipeline hides 14 cycles, the
	// CMP decision does not. SC hits more; with tolerance its latency is
	// free, without it the extra 14 cycles must be paid on every hit.
	run := func(d Decision, tol float64) modes.Mode {
		cfg := testCfg()
		cfg.Decision = d
		cfg.MissLatencyInit = 40
		c := New(cfg)
		c.RecordTolerance(tol)
		// HighCap hits 100%, None hits too (so "fewest misses" alone
		// cannot separate LATTE from CMP — latency does).
		driveEP(c, map[modes.Mode]bool{modes.HighCap: true, modes.None: true, modes.LowLat: true})
		return c.CurrentMode()
	}
	if got := run(DecisionLatte, 20); got != modes.None {
		// All modes hit equally; with everything hidden the tie favours None.
		t.Fatalf("LATTE with equal hits: %v", got)
	}
	if got := run(DecisionCMP, 20); got != modes.None {
		t.Fatalf("CMP with equal hits: %v", got)
	}
}

func TestHitCountDecisionIgnoresLatency(t *testing.T) {
	cfg := testCfg()
	cfg.Decision = DecisionHitCount
	c := New(cfg)
	c.RecordTolerance(0) // would make LATTE avoid SC
	driveEP(c, map[modes.Mode]bool{modes.HighCap: true})
	if c.CurrentMode() != modes.HighCap {
		t.Fatalf("Adaptive-Hit-Count must chase hits: %v", c.CurrentMode())
	}
}

func TestLatteAvoidsSCButHitCountDoesNot(t *testing.T) {
	// The Figure 17 scenario: SC hits most, but with zero tolerance and a
	// cheap miss path, paying 14 cycles on every hit is worse than the
	// baseline's miss rate. LATTE-CC must decline SC; hit-count takes it.
	mk := func(d Decision) *Controller {
		cfg := testCfg()
		cfg.Decision = d
		cfg.MissLatencyInit = 10
		c := New(cfg)
		c.RecordTolerance(0)
		return c
	}
	hits := map[modes.Mode]bool{modes.HighCap: true}
	latte := mk(DecisionLatte)
	driveEP(latte, hits)
	hc := mk(DecisionHitCount)
	driveEP(hc, hits)
	if latte.CurrentMode() == modes.HighCap {
		t.Fatal("LATTE-CC should not pick SC at zero tolerance with cheap misses")
	}
	if hc.CurrentMode() != modes.HighCap {
		t.Fatalf("hit-count should pick SC, got %v", hc.CurrentMode())
	}
}

func TestPeriodRolloverFlushesAndResets(t *testing.T) {
	c := New(testCfg())
	total := c.cfg.EPAccesses * c.cfg.EPsPerPeriod
	var gotFlush bool
	for i := uint64(0); i < total; i++ {
		dir := c.RecordAccess(int(i)%c.cfg.NumSets, true, modes.None, 0, i)
		if dir.FlushHighCap && dir.RebuildHighCap {
			gotFlush = true
			if i != total-1 {
				t.Fatalf("flush at access %d, want only at period end %d", i, total-1)
			}
		}
	}
	if !gotFlush {
		t.Fatal("period end must request flush+rebuild")
	}
	if c.Periods() != 1 {
		t.Fatalf("periods = %d", c.Periods())
	}
	for _, m := range modes.All() {
		if c.hits[m] != 0 || c.inserts[m] != 0 {
			t.Fatal("counters must reset at period rollover")
		}
	}
	if !c.learning() {
		t.Fatal("new period must start in the learning phase")
	}
}

func TestCarryoverCountsHitsOneExtraEP(t *testing.T) {
	c := New(testCfg())
	// EP0 (learning): all misses in dedicated sets.
	driveEP(c, nil)
	insertsAfterLearning := c.inserts
	// EP1 (carryover): hits in HighCap sets must still count; new misses
	// must NOT count as inserts.
	before := c.hits[modes.HighCap]
	driveEP(c, map[modes.Mode]bool{modes.HighCap: true})
	if c.hits[modes.HighCap] <= before {
		t.Fatal("carryover EP must keep counting dedicated-set hits")
	}
	if c.inserts != insertsAfterLearning {
		t.Fatal("inserts must freeze after the learning phase")
	}
	// EP2: hits no longer counted.
	frozen := c.hits[modes.HighCap]
	driveEP(c, map[modes.Mode]bool{modes.HighCap: true})
	if c.hits[modes.HighCap] != frozen {
		t.Fatal("hit counting must stop after the carryover EP")
	}
}

func TestToleranceUpdatesPerEP(t *testing.T) {
	c := New(testCfg())
	for i := 0; i < 10; i++ {
		c.RecordTolerance(30)
	}
	if c.Tolerance() != 0 {
		t.Fatal("tolerance must only take effect at the EP boundary")
	}
	driveEP(c, nil)
	if got := c.Tolerance(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("tolerance = %v, want 30", got)
	}
}

func TestQueueWaitObservation(t *testing.T) {
	c := New(testCfg())
	// HighCap hits with extra latency 20 = 14 decomp + 6 queue.
	for i := 0; i < 50; i++ {
		c.RecordAccess(0, true, modes.HighCap, 20, uint64(i))
	}
	if w := c.queueWait[modes.HighCap].Value(); math.Abs(w-6) > 1e-9 {
		t.Fatalf("queue wait = %v, want 6", w)
	}
	// hitLatency folds base + decomp + queue.
	want := float64(c.cfg.BaseHitLatency) + 14 + 6
	if got := c.hitLatency(modes.HighCap); math.Abs(got-want) > 1e-9 {
		t.Fatalf("hitLatency = %v, want %v", got, want)
	}
}

func TestAMATGPUEquation(t *testing.T) {
	// 100 hits at latency 10 with tolerance 4 → eff 6; 50 misses at 100.
	got := AMATGPU(100, 50, 10, 4, 100)
	want := (100*6.0 + 50*100.0) / 150.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AMAT_GPU = %v, want %v", got, want)
	}
	// Tolerance exceeding hit latency clamps to zero, not negative.
	got = AMATGPU(100, 0, 10, 50, 100)
	if got != 0 {
		t.Fatalf("clamped AMAT = %v, want 0", got)
	}
	if AMATGPU(0, 0, 1, 1, 1) != 0 {
		t.Fatal("no accesses → AMAT 0")
	}
}

func TestAMATConventionalIsToleranceFree(t *testing.T) {
	if AMAT(10, 10, 8, 100) != AMATGPU(10, 10, 8, 0, 100) {
		t.Fatal("AMAT must equal AMAT_GPU with zero tolerance")
	}
}

func TestAMATMonotonicInToleranceQuick(t *testing.T) {
	f := func(hits, misses uint16, hitLat, tol1, tol2, missLat uint8) bool {
		t1, t2 := float64(tol1), float64(tol2)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		a1 := AMATGPU(uint64(hits), uint64(misses), float64(hitLat), t1, float64(missLat))
		a2 := AMATGPU(uint64(hits), uint64(misses), float64(hitLat), t2, float64(missLat))
		return a2 <= a1+1e-9 // more tolerance never increases AMAT_GPU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionLogAndSwitchCounting(t *testing.T) {
	c := New(testCfg())
	driveEP(c, map[modes.Mode]bool{modes.LowLat: true}) // LowLat wins EP1
	if len(c.EPLog()) != 1 {
		t.Fatalf("EP log length %d, want 1", len(c.EPLog()))
	}
	total := c.EPsInMode()
	var sum uint64
	for _, n := range total {
		sum += n
	}
	if sum != c.decisions {
		t.Fatal("EPsInMode must sum to decision count")
	}
}

func TestMissLatencySeedAndUpdate(t *testing.T) {
	c := New(testCfg())
	if c.missLatency() != c.cfg.MissLatencyInit {
		t.Fatal("seed miss latency expected before observations")
	}
	c.RecordMissLatency(400)
	if c.missLatency() != 400 {
		t.Fatalf("first observation should set the EWMA: %v", c.missLatency())
	}
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []Config{
		{NumSets: 4, EPAccesses: 256, EPsPerPeriod: 10, LearningEPs: 1, DedicatedSetsPerMode: 4},
		{NumSets: 32, EPAccesses: 0, EPsPerPeriod: 10, LearningEPs: 1, DedicatedSetsPerMode: 4},
		{NumSets: 32, EPAccesses: 256, EPsPerPeriod: 2, LearningEPs: 2, CarryoverEPs: 2, DedicatedSetsPerMode: 4},
		{NumSets: 32, EPAccesses: 256, EPsPerPeriod: 10, LearningEPs: 1, DedicatedSetsPerMode: 0},
	}
	for i, cfg := range cases {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("case %d: Validate accepted it", i)
			continue
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("case %d: New panicked with %v, want Validate's %q", i, r, err)
				}
			}()
			New(cfg)
		}()
	}
	// The smallest L1 the defaults fit: one set per dedicated set.
	if err := DefaultConfig(12).Validate(); err != nil {
		t.Errorf("12 sets: %v", err)
	}
	if err := DefaultConfig(11).Validate(); err == nil {
		t.Error("11 sets cannot host 12 dedicated sets")
	}
}

func TestNoSamplesKeepsBaseline(t *testing.T) {
	cfg := testCfg()
	c := New(cfg)
	// An EP where no dedicated set is ever touched: all accesses go to one
	// follower set.
	follower := -1
	for s, d := range c.dedicated {
		if d < 0 {
			follower = s
			break
		}
	}
	for i := uint64(0); i < cfg.EPAccesses; i++ {
		c.RecordAccess(follower, false, modes.None, 0, i)
	}
	if c.CurrentMode() != modes.None {
		t.Fatalf("with no samples the controller must hold the baseline, got %v", c.CurrentMode())
	}
}

// TestKernelStartDefaultOnlyTags pins the paper-model default: the
// controller state machine runs across kernel boundaries (EP state, the
// sampling counters, and the tolerance accumulator all survive); the
// boundary only changes the kernel tag on subsequent EP-log entries.
func TestKernelStartDefaultOnlyTags(t *testing.T) {
	c := New(testCfg())
	driveEP(c, map[modes.Mode]bool{modes.LowLat: true})
	c.RecordTolerance(12)
	ep, hits, inserts := c.epInPeriod, c.hits, c.inserts
	tolN := c.tolEP.Count()

	c.KernelStart(1)
	if c.epInPeriod != ep || c.hits != hits || c.inserts != inserts || c.tolEP.Count() != tolN {
		t.Fatal("default KernelStart mutated controller state beyond the kernel tag")
	}
	if c.curKernel != 1 {
		t.Fatalf("curKernel = %d, want 1", c.curKernel)
	}
}

// TestKernelBoundaryResetRestartsPeriod pins the opt-in flush-at-launch
// model: entering a different kernel restarts the period state machine
// (EP position, sampling window, backoff, counters, tolerance samples)
// while retaining the incumbent winner; re-announcing the same kernel is
// a no-op.
func TestKernelBoundaryResetRestartsPeriod(t *testing.T) {
	cfg := testCfg()
	cfg.KernelBoundaryReset = true
	c := New(cfg)
	driveEP(c, map[modes.Mode]bool{modes.LowLat: true})
	c.RecordTolerance(30)
	if c.winner != modes.LowLat {
		t.Fatalf("setup: winner = %v, want LowLat", c.winner)
	}
	// Put the backoff machinery in a non-default state so the reset is
	// observable on every field it promises to touch.
	c.sampling = false
	c.stablePeriods = 5

	// Same kernel index: nothing resets.
	ep := c.epInPeriod
	c.KernelStart(0)
	if c.epInPeriod != ep || c.sampling || c.stablePeriods != 5 || c.tolEP.Count() == 0 {
		t.Fatal("KernelStart with the current kernel index must be a no-op")
	}

	c.KernelStart(1)
	if c.epInPeriod != 0 {
		t.Errorf("epInPeriod = %d, want 0 after boundary reset", c.epInPeriod)
	}
	if !c.sampling {
		t.Error("sampling window not reopened at kernel boundary")
	}
	if c.stablePeriods != 0 {
		t.Errorf("stablePeriods = %d, want 0 (backoff reset)", c.stablePeriods)
	}
	for m := range c.hits {
		if c.hits[m] != 0 || c.inserts[m] != 0 {
			t.Fatalf("mode %d counters not cleared: hits=%d inserts=%d", m, c.hits[m], c.inserts[m])
		}
	}
	if c.tolEP.Count() != 0 {
		t.Error("tolerance accumulator not cleared at kernel boundary")
	}
	if c.winner != modes.LowLat {
		t.Errorf("winner = %v, want the incumbent LowLat retained across the reset", c.winner)
	}
	if c.curKernel != 1 {
		t.Errorf("curKernel = %d, want 1", c.curKernel)
	}
}
