package policy

import (
	"slices"

	"lattecc/internal/core"
	"lattecc/internal/modes"
)

// Scheduled is a controller that applies a fixed compression mode per
// kernel, switching at kernel boundaries. It is the execution half of the
// Kernel-OPT oracle (Section V-B): the harness first measures each kernel
// under every static mode, builds the per-kernel argmin schedule, and
// replays it through this controller. Such a policy cannot exist in real
// hardware — it uses oracle knowledge from the end of each kernel — but
// serves as the paper's reference point for coarse-grained adaptation.
type Scheduled struct {
	name     string
	schedule []modes.Mode
	cur      modes.Mode // the running kernel's mode
	// Only a schedule that names HighCap keeps the high-capacity code
	// book.
	codeBook
}

var _ modes.Controller = (*Scheduled)(nil)

// NewScheduled returns a controller replaying the given per-kernel modes.
// Kernels beyond the schedule use the last entry.
func NewScheduled(name string, schedule []modes.Mode, epLen, epsPerPeriod uint64) *Scheduled {
	if len(schedule) == 0 {
		schedule = []modes.Mode{modes.None}
	}
	return &Scheduled{
		name:     name,
		schedule: schedule,
		cur:      schedule[0],
		codeBook: codeBook{epLen: epLen, epsPerPer: epsPerPeriod, needsHC: slices.Contains(schedule, modes.HighCap)},
	}
}

// Name implements modes.Controller.
func (s *Scheduled) Name() string { return s.name }

// KernelStart is called by the simulator at each kernel boundary.
func (s *Scheduled) KernelStart(idx int) {
	s.cur = s.schedule[min(idx, len(s.schedule)-1)]
}

// CurrentMode implements modes.Snapshotter.
func (s *Scheduled) CurrentMode() modes.Mode { return s.cur }

// InsertMode implements modes.Controller.
func (s *Scheduled) InsertMode(int) modes.Mode { return s.cur }

// NewAdaptiveHitCount returns the Figure 17 Adaptive-Hit-Count baseline:
// LATTE-CC's sampling machinery with a decision that only maximizes hit
// counts (minimizes misses), blind to latency.
func NewAdaptiveHitCount(numSets int) *core.Controller {
	cfg := core.DefaultConfig(numSets)
	cfg.Decision = core.DecisionHitCount
	return core.New(cfg)
}

// NewAdaptiveCMP returns the Figure 17 Adaptive-CMP baseline
// (Alameldeen-style): decompression-latency aware via conventional AMAT,
// but oblivious to the GPU's latency tolerance.
func NewAdaptiveCMP(numSets int) *core.Controller {
	cfg := core.DefaultConfig(numSets)
	cfg.Decision = core.DecisionCMP
	return core.New(cfg)
}
