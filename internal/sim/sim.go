// Package sim is the cycle-level GPU model: streaming multiprocessors with
// greedy-then-oldest warp schedulers, per-SM compressed L1 data caches,
// MSHRs, a load-store unit with bounded L1 bandwidth, and the shared
// L2/DRAM system of package mem. It substitutes for GPGPU-Sim in the
// paper's methodology (see DESIGN.md).
package sim

import (
	"fmt"
	"slices"

	"lattecc/internal/cache"
	"lattecc/internal/invariant"
	"lattecc/internal/mem"
	"lattecc/internal/modes"
	"lattecc/internal/stats"
	"lattecc/internal/trace"
)

// KernelResult records one kernel's execution interval.
type KernelResult struct {
	Name   string
	Cycles uint64
	Start  uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	Policy       string
	Workload     string
	Cycles       uint64
	Instructions uint64

	Cache cache.Stats // aggregated over SMs
	Mem   mem.Stats

	Kernels []KernelResult

	// LoadTxns/StoreTxns count coalesced L1/LSU transactions.
	LoadTxns  uint64
	StoreTxns uint64
	// MSHRStallCycles counts LSU head-of-line blocking on full MSHRs.
	MSHRStallCycles uint64

	// ToleranceSeries and CapacitySeries sample SM0 over time when
	// Config.SampleEvery > 0 (Figures 5 and 16).
	ToleranceSeries *stats.Series
	CapacitySeries  *stats.Series

	// ModeEPs aggregates, across SMs, how many adaptive EPs each mode won
	// (zero for non-adaptive controllers).
	ModeEPs [modes.NumModes]uint64
	// EPLog is SM0's per-EP decision log (Figure 15 agreement analysis);
	// EPKernels gives the kernel index of each entry.
	EPLog     []modes.Mode
	EPKernels []int32
	// Switches counts mode changes across all SMs.
	Switches uint64
}

// Clone returns a copy of r that shares no memory with it: every slice
// and both series are copied, so a cached result can be handed out and
// edited without touching the cache.
func (r Result) Clone() Result {
	r.Kernels = slices.Clone(r.Kernels)
	r.EPLog = slices.Clone(r.EPLog)
	r.EPKernels = slices.Clone(r.EPKernels)
	r.ToleranceSeries = r.ToleranceSeries.Clone()
	r.CapacitySeries = r.CapacitySeries.Clone()
	return r
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// StateHash folds every field of the result, in Walk's order, into one
// FNV-1a value. Two runs of the same workload, policy, and configuration
// must produce the same hash — the harness's determinism self-check
// compares hashes instead of diffing every counter, and any
// nondeterminism (map-order iteration, wall-clock leakage, data races)
// shows up as a mismatch.
func (r Result) StateHash() uint64 {
	h := invariant.NewHash()
	r.Walk(Visitor{
		String: func(s string) string { h.String(s); return s },
		Uint64: func(x uint64) uint64 { h.Uint64(x); return x },
		Int32:  func(x int32) int32 { h.Int(int64(x)); return x },
		Byte:   func(b byte) byte { h.Byte(b); return b },
		Len:    func(n int) int { h.Uint64(uint64(n)); return n },
		Series: func(s *stats.Series) *stats.Series {
			if s == nil {
				h.Byte(0)
				return nil
			}
			h.Uint64(uint64(s.Len()))
			for _, p := range s.Points() {
				h.Uint64(p.Cycle)
				h.Float64(p.Value)
			}
			return s
		},
	})
	return h.Sum()
}

// Sim drives one workload through the configured GPU.
type Sim struct {
	cfg  Config
	mem  *mem.System
	memo *cache.SizeMemo
	sms  []*sm
	work trace.Workload
}

// New builds a simulator for one workload. factory builds the compression
// controller for each SM (use the same policy for all SMs, as the paper
// does). It panics with cfg.Validate's error.
func New(cfg Config, work trace.Workload, factory ControllerFactory) *Sim {
	return NewOn(cfg, work, factory, nil)
}

// Buffers holds the machine arrays of a finished simulation: its L2
// tags, its size memo's tables and SC scratch, and each L1's slabs and
// SC. NewOn builds the next simulation on them, and it runs exactly as
// on new arrays: each layer's constructor clears what it takes. Nothing
// a Result references is among them.
type Buffers struct {
	mem  mem.Buffers
	memo *cache.SizeMemo
	l1   []cache.Buffers
}

// NewOn is New on b, the buffers of a finished simulation (nil builds on
// new arrays). The Sim owns them until its Run returns; Buffers then
// hands them on. Under invariant checks it asserts that they read as
// new before the first cycle.
func NewOn(cfg Config, work trace.Workload, factory ControllerFactory, b *Buffers) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if b == nil {
		b = &Buffers{}
	}
	m := mem.NewOn(cfg.Mem, b.mem)
	// One size memo per run, shared by every SM's L1: the SMs tick
	// serially, and its entries die with the Sim.
	s := &Sim{cfg: cfg, mem: m, memo: cache.NewSizeMemo(b.memo), work: work}
	numSets := cfg.Cache.NumSets()
	data := work.Data()
	for i := 0; i < cfg.NumSMs; i++ {
		var l1b cache.Buffers
		if i < len(b.l1) {
			l1b = b.l1[i]
		}
		ctrl := factory(numSets)
		l1 := cache.NewL1(cfg.Cache, ctrl, s.memo, l1b)
		s.sms = append(s.sms, newSM(i, &s.cfg, ctrl, l1, m, data))
	}
	if invariant.Active() {
		m.AssertFresh()
		s.memo.AssertFresh()
		for _, sm := range s.sms {
			sm.l1.AssertFresh()
		}
	}
	return s
}

// Buffers returns s's machine arrays for NewOn. Call it once Run has
// returned, and use s no more: the Sim built on them overwrites them.
func (s *Sim) Buffers() *Buffers {
	b := &Buffers{mem: s.mem.Buffers(), memo: s.memo, l1: make([]cache.Buffers, len(s.sms))}
	for i, m := range s.sms {
		b.l1[i] = m.l1.Buffers()
	}
	return b
}

// Run executes every kernel of the workload and returns the result.
//
// Each cycle ticks every SM once, in id order, so the shared memory
// system sees transactions in (SM id, issue order) (DESIGN.md §12); the
// budget, sampling, dispatch, and liveness checks run after the last
// SM's tick.
func (s *Sim) Run() Result {
	res := Result{
		Workload: s.work.Name(),
		Policy:   s.sms[0].ctrl.Name(),
	}
	if s.cfg.SampleEvery > 0 {
		res.ToleranceSeries = stats.NewSeries("tolerance", 4096)
		res.CapacitySeries = stats.NewSeries("effective-capacity", 4096)
	}

	now := uint64(0)
	var totalInsts uint64
	budgetExhausted := false

	for ki, k := range s.work.Kernels() {
		k.Validate()
		if budgetExhausted {
			break
		}
		for _, m := range s.sms {
			if ks, ok := m.ctrl.(interface{ KernelStart(int) }); ok {
				ks.KernelStart(ki)
			}
		}
		start := now
		nextBlock := 0

		// Initial wave: fill every SM as far as occupancy allows.
		dispatch := func() {
			for nextBlock < k.Blocks {
				launched := false
				for _, m := range s.sms {
					if nextBlock >= k.Blocks {
						break
					}
					if m.launchBlock(k, nextBlock) {
						nextBlock++
						launched = true
					}
				}
				if !launched {
					return
				}
			}
		}
		dispatch()

		for {
			busy := false
			for _, m := range s.sms {
				totalInsts += m.tick(now)
				if m.busy() {
					busy = true
				}
			}
			now++

			if nextBlock < k.Blocks {
				dispatch()
				busy = true
			}
			if s.cfg.SampleEvery > 0 && now%s.cfg.SampleEvery == 0 {
				sm0 := s.sms[0]
				res.ToleranceSeries.Add(now, sm0.lastTolerance)
				res.CapacitySeries.Add(now, sm0.l1.EffectiveCapacityRatio())
			}
			if totalInsts >= s.cfg.MaxInstructions {
				for _, m := range s.sms {
					m.forceFinish(now)
				}
				budgetExhausted = true
				break
			}
			if now >= s.cfg.MaxCycles {
				//lint:allow panic-audit deadlock guard; a wedged simulation has no error path back to the caller
				panic(fmt.Sprintf("sim: cycle guard exceeded (%d cycles, %d insts, workload %s)",
					now, totalInsts, s.work.Name()))
			}
			if !busy {
				break
			}
			// Fast-forward across provably idle cycles: when every SM's
			// LSU is drained and nothing — fill arrival, warp wake-up,
			// tolerance-window boundary, sample point, cycle guard — can
			// happen before cycle `next`, the intervening cycles are
			// no-ops in every SM, the memory system (no traffic), and the
			// dispatcher (block slots only free on a retire, which needs
			// a ready warp). Jumping `now` there is therefore invisible
			// to every counter, the trace stream, and StateHash; it only
			// removes the empty cycles that dominate memory-bound stall
			// phases.
			if next := s.nextInterestingCycle(now); next > now {
				now = next
			}
		}

		res.Kernels = append(res.Kernels, KernelResult{Name: k.Name, Cycles: now - start, Start: start})
		for _, m := range s.sms {
			m.compactWarps()
			if s.cfg.FlushL1AtKernelBoundary {
				m.l1.Flush()
			}
		}
	}

	res.Cycles = now
	res.Instructions = totalInsts
	res.Mem = s.mem.Stats()
	for i, m := range s.sms {
		// Stats.Add covers every field (reflection-checked in package
		// cache), unlike the hand-rolled loop it replaced, which silently
		// dropped fields added after it was written.
		res.Cache.Add(m.l1.Stats())
		res.LoadTxns += m.loadTxns
		res.StoreTxns += m.storeTxns
		res.MSHRStallCycles += m.stallMSHR

		if lc, ok := m.ctrl.(interface {
			EPsInMode() [modes.NumModes]uint64
			EPLog() []modes.Mode
			EPKernels() []int32
			Switches() uint64
		}); ok {
			eps := lc.EPsInMode()
			for mo := range eps {
				res.ModeEPs[mo] += eps[mo]
			}
			res.Switches += lc.Switches()
			if i == 0 {
				res.EPLog = lc.EPLog()
				res.EPKernels = lc.EPKernels()
			}
		}
	}
	return res
}

// nextInterestingCycle returns the earliest cycle > now at which any SM
// can make progress, or now when the very next cycle already has work
// queued. Besides the per-SM events (sm.nextEvent) it stops one cycle
// short of a SampleEvery boundary and of MaxCycles: the series probe and
// the deadlock guard both run between cycles, after `now` is advanced,
// so the cycle just before each boundary must execute normally for those
// checks to observe the same `now` a cycle-by-cycle run produces.
func (s *Sim) nextInterestingCycle(now uint64) uint64 {
	next := ^uint64(0)
	for _, m := range s.sms {
		e := m.nextEvent(now)
		if e <= now {
			return now
		}
		if e < next {
			next = e
		}
	}
	if s.cfg.SampleEvery > 0 {
		if b := (now/s.cfg.SampleEvery+1)*s.cfg.SampleEvery - 1; b < next {
			next = b
		}
	}
	if s.cfg.MaxCycles > 0 && s.cfg.MaxCycles-1 < next {
		next = s.cfg.MaxCycles - 1
	}
	if next <= now {
		return now
	}
	return next
}
