// Package policy implements the compression-management policies LATTE-CC
// is compared against in the paper's evaluation:
//
//   - Uncompressed / Static-BDI / Static-SC / Static-BPC (Figures 11-13)
//   - Adaptive-Hit-Count — set sampling on hit counts only (Figure 17)
//   - Adaptive-CMP — Alameldeen-style, decompression-latency aware but
//     latency-tolerance oblivious (Figure 17)
//   - Kernel-OPT — the offline oracle that picks the best static mode per
//     kernel (Figures 11 and 15), driven by the harness
//
// The LATTE-CC controller itself lives in package core.
package policy

import "lattecc/internal/modes"

// NewStatic returns the controller that applies one compression mode to
// every line, unconditionally: a one-mode Scheduled, so a uniform
// Kernel-OPT schedule and its static policy are the same controller.
// NewStatic(modes.None) is the baseline uncompressed cache;
// NewStatic(modes.LowLat) is Static-BDI; NewStatic(modes.HighCap) is
// Static-SC (or Static-BPC when the cache's high-capacity codec is BPC).
// epLen and epsPerPeriod control the high-capacity code-book rebuild
// cadence; they are ignored unless mode is HighCap.
func NewStatic(mode modes.Mode, name string, epLen, epsPerPeriod uint64) *Scheduled {
	return NewScheduled(name, []modes.Mode{mode}, epLen, epsPerPeriod)
}

// codeBook is the period bookkeeping of the high-capacity codec. Even
// static SC needs its VFT rebuilt periodically (Section IV-C2 applies
// the same period structure to SC and LATTE-CC); a policy that never
// inserts HighCap lines keeps no book.
type codeBook struct {
	epLen     uint64 // accesses per experimental phase
	epsPerPer uint64 // EPs per period
	accesses  uint64
	needsHC   bool
}

// UsesHighCap reports whether the policy inserts HighCap lines; the
// simulator builds the L1 without the high-capacity codec when it does
// not.
func (b *codeBook) UsesHighCap() bool { return b.needsHC }

// RecordAccess implements modes.Controller. For a policy that inserts
// HighCap lines it requests the periodic VFT rebuild and the
// accompanying flush of compressed lines.
func (b *codeBook) RecordAccess(int, bool, modes.Mode, uint64, uint64) modes.Directive {
	if !b.needsHC {
		return modes.Directive{}
	}
	b.accesses++
	if b.accesses == b.epLen {
		// Section IV-C2: the VFT is built during the first EP of the
		// first period — the first code book exists from then on.
		return modes.Directive{RebuildHighCap: true}
	}
	if b.accesses%(b.epLen*b.epsPerPer) == 0 {
		return modes.Directive{FlushHighCap: true, RebuildHighCap: true}
	}
	return modes.Directive{}
}

// RecordMissLatency implements modes.Controller (unused).
func (*codeBook) RecordMissLatency(uint64) {}

// RecordTolerance implements modes.Controller (unused).
func (*codeBook) RecordTolerance(float64) {}
