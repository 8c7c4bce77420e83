package oracle

import "lattecc/internal/sim"

// RefScheduler single-steps one warp scheduler, mirroring the per-cycle
// accounting of sim.WarpScheduler (last pick, and the Equation 4 ready
// and switch counts; issues are counted by whoever issues the pick).
// Each pick is re-derived from the policy specification by explicit
// searches over the ready warps' ids, without relying on their order:
//
//   - GTO: issue the last issued warp if it is ready; otherwise issue the
//     oldest ready warp (minimum id — warp ids are assigned in launch
//     order).
//   - RR: issue the ready warp with the smallest id strictly greater than
//     the last issued warp's; if none exists, wrap to the oldest ready
//     warp.
type RefScheduler struct {
	Kind               sim.SchedulerKind
	LastWarp           int
	ReadySum, Switches uint64
}

// NewRefScheduler starts a scheduler with no issue history.
func NewRefScheduler(kind sim.SchedulerKind) *RefScheduler {
	return &RefScheduler{Kind: kind, LastWarp: -1}
}

// Step consumes the ids of one cycle's ready warps (unique) and returns
// the picked warp id (ok=false when none is ready).
func (r *RefScheduler) Step(ready []int) (int, bool) {
	minReady, minAfter, lastReady := -1, -1, false
	for _, id := range ready {
		lastReady = lastReady || id == r.LastWarp
		if minReady < 0 || id < minReady {
			minReady = id
		}
		if id > r.LastWarp && (minAfter < 0 || id < minAfter) {
			minAfter = id
		}
	}
	if len(ready) == 0 {
		return -1, false
	}
	r.ReadySum += uint64(len(ready) - 1)
	id := minReady
	switch {
	case r.Kind == sim.SchedRR && minAfter >= 0:
		id = minAfter
	case r.Kind != sim.SchedRR && lastReady:
		id = r.LastWarp
	}
	if id != r.LastWarp {
		r.Switches++
		r.LastWarp = id
	}
	return id, true
}
