// Package core implements the LATTE-CC adaptive compression controller —
// the primary contribution of the paper (Section III). The controller
// divides execution into periods of Experimental Phases (EPs), uses
// set-sampling during a learning phase to estimate the cache-capacity
// benefit of each compression mode, continuously estimates the GPU
// pipeline's latency tolerance, and selects the mode that minimizes
// AMAT_GPU (Equation 2) for every EP of the adaptive phase.
//
// The same sampling machinery also powers the two adaptive baselines of
// Figure 17 — Adaptive-Hit-Count (decides on hit counts alone) and
// Adaptive-CMP (latency aware but tolerance oblivious) — selected through
// the Decision knob. This mirrors the paper's framing: the baselines
// differ from LATTE-CC only in what the decision function knows.
package core

import (
	"errors"
	"fmt"
	"math"

	"lattecc/internal/modes"
	"lattecc/internal/stats"
)

// Decision selects the mode-decision function.
type Decision int

const (
	// DecisionLatte is the full LATTE-CC decision: minimize AMAT_GPU with
	// the latency-tolerance clamp of Equation 2.
	DecisionLatte Decision = iota
	// DecisionHitCount picks the mode with the most sampled hits
	// (equivalently, fewest misses) — the Adaptive-Hit-Count baseline.
	DecisionHitCount
	// DecisionCMP minimizes conventional AMAT (Equation 1) including
	// decompression latency but ignoring latency tolerance — the
	// Adaptive-CMP baseline (Alameldeen-style, adapted to mode selection).
	DecisionCMP
)

// String names the decision for reports.
func (d Decision) String() string {
	switch d {
	case DecisionLatte:
		return "LATTE-CC"
	case DecisionHitCount:
		return "Adaptive-Hit-Count"
	case DecisionCMP:
		return "Adaptive-CMP"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Config holds the LATTE-CC parameters (Section IV-C3 defaults via
// DefaultConfig).
type Config struct {
	NumSets      int    // L1 sets (32 for the Table II cache)
	EPAccesses   uint64 // accesses per experimental phase (256)
	EPsPerPeriod uint64 // EPs per period (10)
	LearningEPs  uint64 // EPs in the learning phase (1)
	CarryoverEPs uint64 // extra EPs that keep counting hits (1)
	// LearningStartEP places the learning phase within the period. The
	// period boundary flushes every high-capacity line (code book
	// rebuild), so sampling immediately after it would watch the
	// high-capacity sets refill from cold and systematically undercount
	// their hits. Starting the learning phase a few EPs into the period
	// samples warm, steady-state sets. 0 reproduces the paper-literal
	// layout (learning first).
	LearningStartEP uint64
	// WarmupEPs is how many EPs before the learning phase the dedicated
	// sets switch to inserting their own mode, without counting. Without
	// a warmup the dedicated sets still hold the previous winner's lines
	// when sampling opens, so every mode gets credited with the
	// incumbent's capacity and the signal collapses (see DESIGN.md).
	// Outside warmup+learning the dedicated sets follow the winner, as
	// the paper specifies, bounding the sampling overhead.
	WarmupEPs uint64
	// DedicatedSetsPerMode is the number of sampling sets per mode (4 in
	// Section IV-C3).
	DedicatedSetsPerMode int

	BaseHitLatency uint64                 // L1 hit latency without compression
	DecompLatency  [modes.NumModes]uint64 // per-mode decompression latency

	// MissLatencyInit seeds the observed-miss-latency average before any
	// miss completes (roughly the minimum L2 latency).
	MissLatencyInit float64

	// SampleEveryPeriods rate-limits sampling once the prediction is
	// stable: after StableBeforeBackoff consecutive periods with an
	// unchanged winner, only every SampleEveryPeriods-th period runs the
	// warmup/learning window. Sampling has a real cost — dedicated sets
	// must run non-winning modes — and a stable workload does not need to
	// pay it every period. Tolerance-driven re-decisions still happen
	// every EP; only the capacity counters go stale. 0 disables backoff.
	SampleEveryPeriods  uint64
	StableBeforeBackoff uint64

	// KernelBoundaryReset restarts the period state machine whenever a new
	// kernel launches: the sampling window reopens immediately and the
	// stable-prediction backoff resets, so the controller re-learns the new
	// kernel's capacity signal instead of trusting counters sampled from
	// the previous kernel's access mix for up to SampleEveryPeriods
	// periods. False reproduces the paper's hardware model, where the EP
	// machinery is oblivious to kernel launches and state simply persists
	// (the winner carries over and re-learning waits for the next sampling
	// window).
	KernelBoundaryReset bool

	Decision Decision
}

// DefaultConfig returns the Section IV-C3 parameters for a cache with the
// given set count and the BDI/SC latencies of Section IV-C.
func DefaultConfig(numSets int) Config {
	return Config{
		NumSets:              numSets,
		EPAccesses:           256,
		EPsPerPeriod:         10,
		LearningEPs:          1,
		CarryoverEPs:         1,
		LearningStartEP:      3,
		WarmupEPs:            2,
		DedicatedSetsPerMode: 4,
		SampleEveryPeriods:   4,
		StableBeforeBackoff:  3,
		BaseHitLatency:       4,
		DecompLatency:        [modes.NumModes]uint64{0, 2, 14},
		MissLatencyInit:      150,
		Decision:             DecisionLatte,
	}
}

// Controller is the LATTE-CC adaptive compression controller. It
// implements modes.Controller.
type Controller struct {
	cfg  Config
	name string

	// dedicated[set] is the mode a set samples during the learning phase,
	// or -1 for follower sets. dedicatedList enumerates the dedicated set
	// indices for the sampling-window flush.
	dedicated     []int8
	dedicatedList []modes.SetMode

	// Per-mode sampling counters for the current period (Section III-B1).
	hits    [modes.NumModes]uint64
	inserts [modes.NumModes]uint64

	accesses   uint64 // total accesses (EP clock)
	epInPeriod uint64
	periods    uint64

	winner        modes.Mode      // current follower mode
	stablePeriods uint64          // consecutive periods without a winner change
	sampling      bool            // whether this period runs the sampling window
	cleanupList   []modes.SetMode // end-of-window cleanup (winner, keep-uncompressed)

	missLat   *stats.EWMA                 // observed miss service latency
	queueWait [modes.NumModes]*stats.EWMA // observed decompression queue wait per mode

	tolEP      stats.Running // tolerance samples within the current EP
	toleranceC float64       // tolerance estimate used for decisions (last EP mean)

	// Instrumentation.
	epLog     []modes.Mode // winner at each adaptive-phase EP boundary
	epKernel  []int32      // kernel index active at each logged EP
	curKernel int32
	epsInMode [modes.NumModes]uint64
	decisions uint64
	switches  uint64
}

var _ modes.Controller = (*Controller)(nil)
var _ modes.Snapshotter = (*Controller)(nil)

// Validate reports whether the config builds a controller: the cache
// must have a set for every mode's dedicated sets, and the warmup and
// learning windows must fit in the period.
func (c Config) Validate() error {
	need := c.DedicatedSetsPerMode * int(modes.NumModes)
	switch {
	case c.DedicatedSetsPerMode < 1:
		return fmt.Errorf("core: %d dedicated sets per mode, need at least 1", c.DedicatedSetsPerMode)
	case c.NumSets < need:
		return fmt.Errorf("core: %d sets cannot host %d dedicated sets", c.NumSets, need)
	case c.EPAccesses == 0 || c.EPsPerPeriod == 0 || c.LearningEPs == 0:
		return errors.New("core: zero-length phases")
	case c.LearningStartEP+c.LearningEPs+c.CarryoverEPs > c.EPsPerPeriod:
		return errors.New("core: learning window exceeds period")
	case c.WarmupEPs > c.LearningStartEP:
		return errors.New("core: warmup window starts before the period")
	}
	return nil
}

// New builds a controller; it panics with cfg.Validate's error.
func New(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	need := cfg.DedicatedSetsPerMode * int(modes.NumModes)
	c := &Controller{
		cfg:       cfg,
		name:      cfg.Decision.String(),
		dedicated: make([]int8, cfg.NumSets),
		missLat:   stats.NewEWMA(0.1),
		winner:    modes.None,
		sampling:  true,
	}
	for m := range c.queueWait {
		c.queueWait[m] = stats.NewEWMA(0.1)
	}
	for i := range c.dedicated {
		c.dedicated[i] = -1
	}
	// Spread the dedicated sets across the index space so sampling sees a
	// representative address mix (stride = NumSets / (modes*setsPerMode)).
	stride := cfg.NumSets / need
	if stride == 0 {
		stride = 1
	}
	idx := 0
	for i := 0; i < cfg.DedicatedSetsPerMode; i++ {
		for _, m := range modes.All() {
			c.dedicated[idx%cfg.NumSets] = int8(m)
			c.dedicatedList = append(c.dedicatedList, modes.SetMode{Set: idx % cfg.NumSets, Mode: m})
			idx += stride
		}
	}
	return c
}

// Name implements modes.Controller.
func (c *Controller) Name() string { return c.name }

// CurrentMode implements modes.Snapshotter.
func (c *Controller) CurrentMode() modes.Mode { return c.winner }

// Tolerance returns the latency-tolerance estimate currently used for
// decisions, in cycles.
func (c *Controller) Tolerance() float64 { return c.toleranceC }

// Periods returns the number of completed periods.
func (c *Controller) Periods() uint64 { return c.periods }

// EPLog returns the winner decided at each adaptive EP boundary, for the
// Figure 15 agreement analysis.
func (c *Controller) EPLog() []modes.Mode { return c.epLog }

// EPKernels returns, parallel to EPLog, the kernel index each decision
// was made in.
func (c *Controller) EPKernels() []int32 { return c.epKernel }

// KernelStart tags subsequent EP-log entries with the kernel index; the
// simulator calls it at kernel boundaries. With KernelBoundaryReset set,
// entering a different kernel also restarts the period state machine
// (fresh sampling window, cleared counters, backoff reset) — the winner
// itself is retained until the reopened window decides otherwise.
func (c *Controller) KernelStart(idx int) {
	if c.cfg.KernelBoundaryReset && int32(idx) != c.curKernel {
		c.epInPeriod = 0
		c.sampling = true
		c.stablePeriods = 0
		for m := range c.hits {
			c.hits[m], c.inserts[m] = 0, 0
		}
		c.tolEP.Reset()
	}
	c.curKernel = int32(idx)
}

// EPsInMode returns how many adaptive EPs each mode won.
func (c *Controller) EPsInMode() [modes.NumModes]uint64 { return c.epsInMode }

// Switches returns how many EP boundaries changed the winning mode.
func (c *Controller) Switches() uint64 { return c.switches }

// learning reports whether the current EP is in the learning phase.
func (c *Controller) learning() bool {
	return c.sampling && c.epInPeriod >= c.cfg.LearningStartEP &&
		c.epInPeriod < c.cfg.LearningStartEP+c.cfg.LearningEPs
}

// dedicating reports whether dedicated sets currently insert their own
// mode (warmup + learning window); otherwise they follow the winner.
func (c *Controller) dedicating() bool {
	return c.sampling && c.epInPeriod >= c.cfg.LearningStartEP-c.cfg.WarmupEPs &&
		c.epInPeriod < c.cfg.LearningStartEP+c.cfg.LearningEPs
}

// countingHits reports whether dedicated-set hits still update the
// sampling counters (learning phase plus the carryover EPs; Section
// III-B1: "the benefit of compression might manifest later in time").
func (c *Controller) countingHits() bool {
	return c.sampling && c.epInPeriod >= c.cfg.LearningStartEP &&
		c.epInPeriod < c.cfg.LearningStartEP+c.cfg.LearningEPs+c.cfg.CarryoverEPs
}

// InsertMode implements modes.Controller. Dedicated sets force their
// sampling mode during the warmup and learning EPs and follow the winner
// otherwise (Section III-B1's follower behaviour, with the warmup
// extension documented in Config.WarmupEPs).
func (c *Controller) InsertMode(set int) modes.Mode {
	if c.dedicating() {
		if d := c.dedicated[set]; d >= 0 {
			return modes.Mode(d)
		}
	}
	return c.winner
}

// RecordAccess implements modes.Controller: it updates the sampling
// counters and advances the EP/period state machine.
func (c *Controller) RecordAccess(set int, hit bool, lineMode modes.Mode, extraLat uint64, now uint64) modes.Directive {
	// Sampling counter updates (dedicated sets only).
	if d := c.dedicated[set]; d >= 0 {
		m := modes.Mode(d)
		switch {
		case c.learning():
			if hit {
				c.hits[m]++
			} else {
				c.inserts[m]++ // every miss inserts a line in this model
			}
		case c.countingHits():
			if hit {
				c.hits[m]++
			}
		}
	}
	// Queue-wait observation: decompression penalty beyond the codec
	// latency, attributed to the line's mode.
	if hit && lineMode != modes.None && extraLat > 0 {
		dec := c.cfg.DecompLatency[lineMode]
		if extraLat >= dec {
			c.queueWait[lineMode].Add(float64(extraLat - dec))
		}
	}

	c.accesses++
	if c.accesses%c.cfg.EPAccesses != 0 {
		return modes.Directive{}
	}
	return c.epBoundary()
}

// epBoundary advances the EP state machine, re-deciding the winner each
// adaptive EP and rolling periods over.
func (c *Controller) epBoundary() modes.Directive {
	c.epInPeriod++

	// Fold this EP's tolerance samples into the decision estimate.
	if c.tolEP.Count() > 0 {
		c.toleranceC = c.tolEP.Mean()
	}
	c.tolEP.Reset()

	// Section IV-C2: the VFT is built during the first EP of the first
	// period, so the high-capacity codec gets its first code book at the
	// first EP boundary (no flush needed — nothing compressed yet).
	var dir modes.Directive
	if c.accesses == c.cfg.EPAccesses {
		dir.RebuildHighCap = true
	}

	if c.epInPeriod >= c.cfg.EPsPerPeriod {
		// Period rollover: new SC code book (Section IV-C2: rebuilt during
		// the final EP of each period; older compressed lines are
		// invalidated).
		c.epInPeriod = 0
		c.periods++
		dir.FlushHighCap = true
		dir.RebuildHighCap = true
		// Sampling backoff: stable predictions sample less often.
		c.sampling = true
		if c.cfg.SampleEveryPeriods > 0 && c.stablePeriods >= c.cfg.StableBeforeBackoff {
			c.sampling = c.periods%c.cfg.SampleEveryPeriods == 0
		}
	}

	if c.sampling && c.epInPeriod+c.cfg.WarmupEPs == c.cfg.LearningStartEP {
		// Sampling window opens: decontaminate the dedicated sets so each
		// holds only lines of its own mode (the incumbent's leftovers
		// would otherwise credit their capacity to whatever label the set
		// carries). Matching lines survive, so the incumbent's own sets
		// flush nothing.
		dir.FlushMismatch = c.dedicatedList
	}
	if c.sampling && c.epInPeriod == c.cfg.LearningStartEP {
		// Learning phase opens: fresh sampling counters.
		for m := range c.hits {
			c.hits[m], c.inserts[m] = 0, 0
		}
	}

	if c.sampling && c.epInPeriod == c.cfg.LearningStartEP+c.cfg.LearningEPs+c.cfg.CarryoverEPs {
		// Sampling window closed: clear lingering compressed lines of
		// non-winning modes out of the dedicated sets, so a sampling pass
		// does not tax hit-dominated workloads for the rest of the
		// period. Uncompressed lines stay — they cost nothing on hits.
		if c.cleanupList == nil {
			c.cleanupList = make([]modes.SetMode, len(c.dedicatedList))
		}
		for i, sm := range c.dedicatedList {
			c.cleanupList[i] = modes.SetMode{Set: sm.Set, Mode: c.winner, KeepUncompressed: true}
		}
		dir.FlushMismatch = c.cleanupList
	}

	if c.epInPeriod != 0 && c.epInPeriod >= c.cfg.LearningStartEP+c.cfg.LearningEPs {
		prev := c.winner
		c.winner = c.decide()
		c.decisions++
		if c.winner != prev {
			c.switches++
			c.stablePeriods = 0
		} else if c.epInPeriod == c.cfg.EPsPerPeriod-1 {
			c.stablePeriods++
		}
		c.epsInMode[c.winner]++
		c.epLog = append(c.epLog, c.winner)
		c.epKernel = append(c.epKernel, c.curKernel)
	}
	return dir
}

// RecordMissLatency implements modes.Controller.
func (c *Controller) RecordMissLatency(lat uint64) { c.missLat.Add(float64(lat)) }

// RecordTolerance implements modes.Controller.
func (c *Controller) RecordTolerance(tol float64) { c.tolEP.Add(tol) }

// missLatency returns the observed miss latency or the configured seed.
func (c *Controller) missLatency() float64 {
	if c.missLat.Initialized() {
		return c.missLat.Value()
	}
	return c.cfg.MissLatencyInit
}

// hitLatency returns the estimated hit latency for a mode: the base L1
// latency plus decompression latency plus the observed queue wait
// (Equation 3).
func (c *Controller) hitLatency(m modes.Mode) float64 {
	lat := float64(c.cfg.BaseHitLatency + c.cfg.DecompLatency[m])
	if m != modes.None {
		lat += c.queueWait[m].Value()
	}
	return lat
}

// AMATGPU computes Equation 2: hits pay max(hitLat - tolerance, 0), misses
// pay the full miss latency.
func AMATGPU(hits, misses uint64, hitLat, tolerance, missLat float64) float64 {
	n := hits + misses
	if n == 0 {
		return 0
	}
	effHit := hitLat - tolerance
	if effHit < 0 {
		effHit = 0
	}
	return (float64(hits)*effHit + float64(misses)*missLat) / float64(n)
}

// AMAT computes Equation 1: conventional AMAT without latency tolerance.
func AMAT(hits, misses uint64, hitLat, missLat float64) float64 {
	return AMATGPU(hits, misses, hitLat, 0, missLat)
}

// decide picks the winner from the sampled counters per the configured
// decision function.
func (c *Controller) decide() modes.Mode {
	if c.cfg.Decision == DecisionHitCount {
		best := modes.None
		for _, m := range modes.All() {
			if c.hits[m] > c.hits[best] {
				best = m
			}
		}
		return best
	}
	tol := c.toleranceC
	if c.cfg.Decision == DecisionCMP {
		tol = 0
	}
	miss := c.missLatency()
	var amat [modes.NumModes]float64
	var sampled [modes.NumModes]bool
	for _, m := range modes.All() {
		if c.hits[m]+c.inserts[m] == 0 {
			// No samples for this mode this period: unknown, not free.
			continue
		}
		sampled[m] = true
		amat[m] = AMATGPU(c.hits[m], c.inserts[m], c.hitLatency(m), tol, miss)
	}
	// Incumbent hysteresis: a challenger must beat the current winner's
	// AMAT by a clear margin before taking over. With 2 sampling sets per
	// mode an EP's counters hold only a few dozen samples, so near-ties
	// are statistical noise; oscillating on them costs real capacity
	// (every mode switch refills the cache with differently-sized lines).
	const margin = 0.9
	best := c.winner
	bestAMAT := math.Inf(1)
	if sampled[best] {
		bestAMAT = amat[best] * margin
	}
	for _, m := range modes.All() {
		if !sampled[m] || m == c.winner {
			continue
		}
		if amat[m] < bestAMAT {
			best, bestAMAT = m, amat[m]*margin
		}
	}
	return best
}
