package sim

import (
	"fmt"
	"testing"

	"lattecc/internal/core"
	"lattecc/internal/modes"
	"lattecc/internal/workload"
)

// orderRecorder is a LATTE-CC controller that checks the order of its
// feeds within each SM cycle: once a miss latency or a tolerance sample
// is reported, no RecordAccess of the same cycle may follow. The
// embedded *core.Controller keeps every optional method (KernelStart,
// EPLog, ...) the simulator looks for.
type orderRecorder struct {
	*core.Controller
	cycle     uint64 // cycle of the last RecordAccess
	missed    bool   // the last RecordAccess missed
	closedBy  string // feed reported since the last RecordAccess, if any
	violation string // first out-of-order feed

	// exposed counts accesses that followed a miss in the same cycle:
	// where an inline RecordMissLatency would have broken the rule.
	exposed, misses, tolerances int
}

func (r *orderRecorder) RecordAccess(set int, hit bool, m modes.Mode, extra, now uint64) modes.Directive {
	if now == r.cycle {
		if r.closedBy != "" && r.violation == "" {
			r.violation = fmt.Sprintf("cycle %d: RecordAccess after %s", now, r.closedBy)
		}
		if r.missed {
			r.exposed++
		}
	}
	r.cycle, r.missed, r.closedBy = now, !hit, ""
	return r.Controller.RecordAccess(set, hit, m, extra, now)
}

func (r *orderRecorder) RecordMissLatency(lat uint64) {
	r.closedBy = "RecordMissLatency"
	r.misses++
	r.Controller.RecordMissLatency(lat)
}

func (r *orderRecorder) RecordTolerance(tol float64) {
	r.closedBy = "RecordTolerance"
	r.tolerances++
	r.Controller.RecordTolerance(tol)
}

// TestMissLatencyFollowsTheCycleAccesses pins the one ordering rule the
// one-phase cycle keeps (DESIGN.md §12): an SM reports a cycle's miss
// latencies after all of that cycle's L1 accesses, and its tolerance
// sample after those. Reporting a latency inline, at the miss, moves
// LATTE-CC's AMAT_GPU input relative to the EP boundary an access later
// in the same cycle closes, and with it Table II StateHashes.
func TestMissLatencyFollowsTheCycleAccesses(t *testing.T) {
	w, err := workload.ByName("KM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.MaxInstructions = 300_000
	var recs []*orderRecorder
	New(cfg, w, func(n int) modes.Controller {
		r := &orderRecorder{Controller: core.New(core.DefaultConfig(n)), cycle: ^uint64(0)}
		recs = append(recs, r)
		return r
	}).Run()
	for i, r := range recs {
		if r.violation != "" {
			t.Errorf("SM %d: %s", i, r.violation)
		}
		if r.exposed == 0 || r.misses == 0 || r.tolerances == 0 {
			t.Errorf("SM %d: %d accesses after a same-cycle miss, %d miss latencies, %d tolerances; the run exercises nothing",
				i, r.exposed, r.misses, r.tolerances)
		}
	}
}
