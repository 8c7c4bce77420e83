package sim

import (
	"math/bits"

	"lattecc/internal/invariant"
)

// wheelSlots is the wake wheel's span: a warp whose nextFree is fewer
// than wheelSlots cycles ahead waits in bucket nextFree%wheelSlots.
const wheelSlots = 64

// WarpScheduler is one warp scheduler's ready state, pick logic and
// Equation 4 accounting, kept incrementally so that a cycle costs a few
// word operations instead of a scan over the resident warps. The SM
// model and the differential oracle drive the same type.
//
// Warps are addressed by position, the index of the warp in the
// scheduler's id-ordered warp list. Add appends and Compact keeps order,
// so position order is age order and GTO's oldest ready warp is the
// lowest ready position. Every schedulable warp sits in exactly one of
// the ready set (nextFree <= now), the wake wheel, or the far set.
type WarpScheduler struct {
	kind  SchedulerKind
	n     int // positions in use
	words int // words per bitset

	nextFree []uint64 // by position: cycle the warp may issue again
	ready    []uint64
	far      []uint64
	wheel    []uint64 // wheelSlots buckets of words words each
	occ      uint64   // bit b set iff wheel bucket b is non-empty
	farMin   uint64   // lower bound on nextFree over the far set

	greedy int // position of the last pick; -1 if none or compacted away
	rrNext int // first position RR considers: one past the last pick

	// Equation 4 accumulators over the tolerance window. Step adds to
	// ReadySum and Switches; the caller counts Issues.
	ReadySum, Issues, Switches uint64
}

// NewWarpScheduler returns an empty scheduler with room for maxWarps
// positions, retired but not yet compacted ones included.
func NewWarpScheduler(kind SchedulerKind, maxWarps int) *WarpScheduler {
	w := (maxWarps + 63) >> 6
	sets := make([]uint64, (2+wheelSlots)*w)
	return &WarpScheduler{kind: kind, words: w, nextFree: make([]uint64, maxWarps),
		ready: sets[:w], far: sets[w : 2*w], wheel: sets[2*w:], farMin: ^uint64(0), greedy: -1}
}

func (q *WarpScheduler) bucket(b uint64) []uint64 {
	return q.wheel[int(b)*q.words : int(b+1)*q.words]
}

func hasBit(set []uint64, p int) bool { return set[p>>6]>>(p&63)&1 != 0 }

// Add appends a new, youngest warp, ready at once, and returns its
// position.
func (q *WarpScheduler) Add() int {
	q.n++
	q.Wake(q.n-1, 0, 0)
	return q.n - 1
}

// Wake makes the warp at p schedulable from cycle t on. It is called at
// cycle now on a parked warp or on the warp just picked. The wheel takes
// only t < now+wheelSlots: a placement made before this cycle's Step at
// t == now+wheelSlots would land in the bucket Step is about to drain.
//
//lint:hotpath
func (q *WarpScheduler) Wake(p int, t, now uint64) {
	q.nextFree[p] = t
	i, m := p>>6, uint64(1)<<(p&63)
	switch {
	case t <= now:
		q.ready[i] |= m
		return
	case t-now < wheelSlots:
		b := t & (wheelSlots - 1)
		q.bucket(b)[i] |= m
		q.occ |= 1 << b
	default:
		q.far[i] |= m
		q.farMin = min(q.farMin, t)
	}
	q.ready[i] &^= m
}

// Park takes the warp at p out of scheduling (blocked on memory, at a
// barrier, or retired) until the next Wake.
//
//lint:hotpath
func (q *WarpScheduler) Park(p int) {
	i, m := p>>6, uint64(1)<<(p&63)
	q.ready[i] &^= m
	q.far[i] &^= m // farMin stays a lower bound
	b := q.nextFree[p] & (wheelSlots - 1)
	if bk := q.bucket(b); bk[i]&m != 0 {
		bk[i] &^= m
		for _, x := range bk {
			if x != 0 {
				return
			}
		}
		q.occ &^= 1 << b
	}
}

// Compact drops the positions of retired warps, for which live is
// false; they must be parked. Survivors keep their order and move down;
// the last pick follows its warp or is forgotten with it, and RR resumes
// at the first survivor younger than the last pick.
func (q *WarpScheduler) Compact(live func(p int) bool) {
	j, greedy, rr := 0, -1, 0
	for p := 0; p < q.n; p++ {
		if !live(p) {
			continue
		}
		if p != j { // bit j is clear in every set: moved down or parked
			q.nextFree[j] = q.nextFree[p]
			moveBit(q.ready, p, j)
			moveBit(q.far, p, j)
			for occ := q.occ; occ != 0; occ &= occ - 1 {
				moveBit(q.bucket(uint64(bits.TrailingZeros64(occ))), p, j)
			}
		}
		if p == q.greedy {
			greedy = j
		}
		if p < q.rrNext {
			rr++
		}
		j++
	}
	q.n, q.greedy, q.rrNext = j, greedy, rr
}

func moveBit(set []uint64, from, to int) {
	if hasBit(set, from) {
		set[from>>6] &^= 1 << (from & 63)
		set[to>>6] |= 1 << (to & 63)
	}
}

// advance moves the warps due at now into the ready set: wheel bucket
// now%wheelSlots, and the far set once its minimum is due. Repeating it
// within a cycle is a no-op.
//
//lint:hotpath
func (q *WarpScheduler) advance(now uint64) {
	if b := now & (wheelSlots - 1); q.occ>>b&1 != 0 {
		bk := q.bucket(b)
		for i, x := range bk {
			q.ready[i] |= x
			bk[i] = 0
		}
		q.occ &^= 1 << b
	}
	if q.farMin > now {
		return
	}
	q.farMin = ^uint64(0)
	for i, x := range q.far {
		for ; x != 0; x &= x - 1 {
			m := x & -x
			if t := q.nextFree[i<<6|bits.TrailingZeros64(x)]; t <= now {
				q.far[i] &^= m
				q.ready[i] |= m
			} else {
				q.farMin = min(q.farMin, t)
			}
		}
	}
}

// Step runs the scheduler for cycle now and returns the picked position
// (ok=false when no warp is ready). ReadySum gains (ready warps - 1) for
// Equation 4. GTO re-picks the last warp while it is ready, else the
// oldest ready one; RR takes the first ready warp after the last pick,
// wrapping to the oldest.
//
//lint:hotpath
func (q *WarpScheduler) Step(now uint64) (int, bool) {
	q.advance(now)
	count, pick := 0, -1
	for i, x := range q.ready {
		if x != 0 && pick < 0 {
			pick = i<<6 | bits.TrailingZeros64(x)
		}
		count += bits.OnesCount64(x)
	}
	if count == 0 {
		return -1, false
	}
	q.ReadySum += uint64(count - 1)
	if q.kind == SchedRR {
		for i := q.rrNext >> 6; i < q.words; i++ {
			x := q.ready[i]
			if i == q.rrNext>>6 {
				x &= ^uint64(0) << (q.rrNext & 63)
			}
			if x != 0 {
				pick = i<<6 | bits.TrailingZeros64(x)
				break
			}
		}
	} else if q.greedy >= 0 && hasBit(q.ready, q.greedy) {
		pick = q.greedy
	}
	if pick != q.greedy {
		q.Switches++
		q.greedy = pick
	}
	q.rrNext = pick + 1
	return pick, true
}

// NextWake returns a lower bound on the first cycle >= now at which one
// of the scheduler's warps can issue: now when one is ready, ^0 when
// none is schedulable. It is valid between cycles.
//
//lint:hotpath
func (q *WarpScheduler) NextWake(now uint64) uint64 {
	for _, x := range q.ready {
		if x != 0 {
			return now
		}
	}
	return min(q.farMin, q.wheelNext(now))
}

// wheelNext returns the earliest wake-up on the wheel, given that every
// bucket holds a cycle in [from, from+wheelSlots).
func (q *WarpScheduler) wheelNext(from uint64) uint64 {
	if q.occ == 0 {
		return ^uint64(0)
	}
	return from + uint64(bits.TrailingZeros64(bits.RotateLeft64(q.occ, -int(from&(wheelSlots-1)))))
}

// verify recomputes, after advance(now), the ready set and the next
// wake-up from the warps' flags and nextFree, and checks the incremental
// state against them. ws maps positions to warps.
func (q *WarpScheduler) verify(now uint64, ws []*warp) {
	wake, farExact := ^uint64(0), ^uint64(0)
	for p, w := range ws {
		t := q.nextFree[p]
		if hasBit(q.ready, p) != (w.flags == 0 && t <= now) {
			invariant.Violationf("sched: cycle %d: warp %d (flags %#x, nextFree %d) ready bit %v",
				now, w.id, w.flags, t, hasBit(q.ready, p))
		}
		if w.flags == 0 && t > now {
			wake = min(wake, t)
		}
		if hasBit(q.far, p) {
			farExact = min(farExact, t)
		}
	}
	if next := min(q.wheelNext(now+1), farExact); next != wake || q.farMin > farExact {
		invariant.Violationf("sched: cycle %d: next wake-up %d (farMin %d), earliest nextFree %d",
			now, next, q.farMin, wake)
	}
}
