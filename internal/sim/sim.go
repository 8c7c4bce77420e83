// Package sim is the cycle-level GPU model: streaming multiprocessors with
// greedy-then-oldest warp schedulers, per-SM compressed L1 data caches,
// MSHRs, a load-store unit with bounded L1 bandwidth, and the shared
// L2/DRAM system of package mem. It substitutes for GPGPU-Sim in the
// paper's methodology (see DESIGN.md).
package sim

import (
	"fmt"

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

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// StateHash folds every field of the result into one FNV-1a value. Two
// runs of the same workload, policy, and configuration must produce the
// same hash — the harness's determinism self-check compares hashes
// instead of diffing every counter, and any nondeterminism (map-order
// iteration, wall-clock leakage, data races) shows up as a mismatch.
func (r Result) StateHash() uint64 {
	h := invariant.NewHash()
	h.String(r.Policy)
	h.String(r.Workload)
	h.Uint64(r.Cycles)
	h.Uint64(r.Instructions)

	h.Uint64(r.Cache.Accesses)
	h.Uint64(r.Cache.Hits)
	h.Uint64(r.Cache.Misses)
	h.Uint64(r.Cache.CompressedHits)
	h.Uint64(r.Cache.DecompWait)
	h.Uint64(r.Cache.DecompBusy)
	h.Uint64(r.Cache.DecompBufferHits)
	h.Uint64(r.Cache.Evictions)
	h.Uint64(r.Cache.Fills)
	h.Uint64(r.Cache.FlushedLines)
	h.Uint64(r.Cache.WriteExpansions)
	h.Uint64(r.Cache.UncompressedSize)
	h.Uint64(r.Cache.CompressedSize)
	for m := 0; m < modes.NumModes; m++ {
		h.Uint64(r.Cache.InsertsByMode[m])
		h.Uint64(r.Cache.HitsByMode[m])
		h.Uint64(r.Cache.SubBlocksByMode[m])
		h.Uint64(r.ModeEPs[m])
	}

	h.Uint64(r.Mem.L2Accesses)
	h.Uint64(r.Mem.L2Hits)
	h.Uint64(r.Mem.L2Misses)
	h.Uint64(r.Mem.L2Writes)
	h.Uint64(r.Mem.DRAMReads)
	h.Uint64(r.Mem.DRAMWrites)
	h.Uint64(r.Mem.BytesL1L2)
	h.Uint64(r.Mem.BytesL2DRAM)

	h.Uint64(uint64(len(r.Kernels)))
	for _, k := range r.Kernels {
		h.String(k.Name)
		h.Uint64(k.Cycles)
		h.Uint64(k.Start)
	}

	h.Uint64(r.LoadTxns)
	h.Uint64(r.StoreTxns)
	h.Uint64(r.MSHRStallCycles)
	h.Uint64(r.Switches)

	h.Uint64(uint64(len(r.EPLog)))
	for _, m := range r.EPLog {
		h.Byte(byte(m))
	}
	h.Uint64(uint64(len(r.EPKernels)))
	for _, k := range r.EPKernels {
		h.Int(int64(k))
	}

	for _, s := range []*stats.Series{r.ToleranceSeries, r.CapacitySeries} {
		if s == nil {
			h.Byte(0)
			continue
		}
		pts := s.Points()
		h.Uint64(uint64(len(pts)))
		for _, p := range pts {
			h.Uint64(p.Cycle)
			h.Float64(p.Value)
		}
	}
	return h.Sum()
}

// Sim drives one workload through the configured GPU.
type Sim struct {
	cfg  Config
	mem  *mem.System
	arb  *mem.Arbiter
	sms  []*sm
	work trace.Workload
}

// New builds a simulator for one workload. factory builds the compression
// controller for each SM (use the same policy for all SMs, as the paper
// does).
func New(cfg Config, work trace.Workload, factory ControllerFactory) *Sim {
	cfg.Validate()
	m := mem.New(cfg.Mem)
	s := &Sim{cfg: cfg, mem: m, work: work}
	numSets := cfg.Cache.SizeBytes / (cfg.Cache.LineSize * cfg.Cache.Ways)
	data := work.Data()
	ports := make([]*mem.Port, cfg.NumSMs)
	for i := 0; i < cfg.NumSMs; i++ {
		cacheCfg := cfg.Cache
		cacheCfg.Codecs = cfg.freshCodecs()
		ctrl := factory(numSets)
		ports[i] = mem.NewPort(cfg.L1Ports)
		s.sms = append(s.sms, newSM(i, &s.cfg, ctrl, cacheCfg, ports[i], data))
	}
	s.arb = mem.NewArbiter(m, ports)
	return s
}

// Run executes every kernel of the workload and returns the result.
//
// Each cycle has two phases (DESIGN.md §12). Phase A ticks every SM in
// id order against only its own state, with memory traffic queued on
// per-SM ports. Phase B drains the ports through the arbiter in (SM id,
// issue order) and commits each SM in id order; the budget, sampling,
// dispatch, and liveness checks all run here, where every SM's state is
// settled.
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
			// Phase A: compute against SM-private state.
			for _, m := range s.sms {
				m.tickCompute(now)
			}
			// Phase B: merge the ports and commit.
			s.arb.Drain(now)
			busy := false
			var cycleInsts uint64
			for _, m := range s.sms {
				m.commit(now)
				cycleInsts += m.cycleInsts
				if m.busy() {
					busy = true
				}
			}
			totalInsts += cycleInsts
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
			// no-ops in every SM, the arbiter (empty ports), and the
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
