package sim

import (
	"slices"

	"lattecc/internal/cache"
	"lattecc/internal/invariant"
	"lattecc/internal/mem"
	"lattecc/internal/modes"
	"lattecc/internal/trace"
)

// Warp blocking flags; a warp is schedulable when flags == 0.
const (
	wDone       uint8 = 1 << iota // retired
	wBlockedMem                   // waiting for an in-flight memory request
	wAtBarrier                    // waiting for the rest of its thread block
)

// warp is one resident warp's execution state. Its issue time lives in
// its scheduler's WarpScheduler, at position pos.
type warp struct {
	id        int
	sched     int // owning scheduler
	pos       int // position in schedWarps[sched]
	blockSlot int
	prog      trace.Program
	cur       trace.Inst
	hasCur    bool

	flags uint8 // wDone | wBlockedMem | wAtBarrier; 0 = schedulable
	insts uint64
}

// memReqAddrCap bounds the inline address buffer: a warp has 32 threads,
// so a memory instruction coalesces into at most 32 transactions.
const memReqAddrCap = 32

// memReq is a warp memory instruction draining through the LSU: its
// remaining coalesced transactions and the latest data-ready time so far.
// Requests are pooled per SM and their addresses copied into the inline
// buffer at issue, so the LSU allocates nothing in steady state (and the
// program generator may reuse its Addrs backing array, per the
// trace.Program contract).
type memReq struct {
	w        *warp
	addrs    []uint64 // aliases buf except for >32-way requests
	next     int
	readyMax uint64
	isStore  bool
	buf      [memReqAddrCap]uint64
}

// noStall is sm.stallLine's "no stalled line"; no line address reaches
// it (a line address is a byte address divided by a line size > 1).
const noStall = ^uint64(0)

// fillEvent is a pending L1 fill (miss response).
type fillEvent struct {
	at       uint64
	lineAddr uint64
}

// fillHeap is a binary min-heap on fillEvent.at with concrete push/pop
// (container/heap's interface indirection boxed every event).
type fillHeap []fillEvent

func (h *fillHeap) push(ev fillEvent) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// pop removes and returns the earliest event. Ties on at are broken by
// heap layout — deterministic, since the push sequence is.
func (h *fillHeap) pop() fillEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && s[r].at < s[l].at {
			c = r
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// mshrEntry is one outstanding L1 miss and the cycle its data arrives.
type mshrEntry struct {
	lineAddr uint64
	fillAt   uint64
}

// blockSlot tracks one resident thread block.
type blockSlot struct {
	active    bool
	remaining int // warps not yet done
	atBarrier int // warps currently waiting at the block barrier
	warps     []warp
}

// sm is one streaming multiprocessor. Its L1 misses and stores go
// straight to the shared mem.System; Run ticks the SMs in id order, so
// the System sees them in (SM id, issue order).
type sm struct {
	id    int
	cfg   *Config
	l1    *cache.Cache
	ctrl  modes.Controller
	mem   *mem.System
	lines *trace.LineBuffer // the workload's data, rendered on demand
	slots []blockSlot       // resident blocks and their warps
	// scheds holds each scheduler's ready state; schedWarps[si] maps its
	// positions to its resident warps, in id order.
	scheds     []WarpScheduler
	schedWarps [][]*warp
	liveWarps  int
	// activeBlocks counts active slots and residentWarps the warps in
	// schedWarps (retired ones included until compactWarps drops them),
	// so launchBlock can refuse a block without scanning either.
	activeBlocks  int
	residentWarps int

	// lsu is the in-order load/store queue; lsuHead indexes the current
	// front so dequeuing doesn't reslice away buffer capacity.
	lsu     []*memReq
	lsuHead int
	reqFree []*memReq // memReq pool

	// mshr holds outstanding misses. A linear scan over at most
	// Config.MSHRs (32) entries beats hashing at this size (a hashed
	// index profiled slower on fig11-batch), and a slice has no
	// iteration-order hazard.
	mshr  []mshrEntry
	fills fillHeap
	// stallLine is the line of an LSU head that found every MSHR busy
	// and none holding it, else noStall. Only mshrRemove can change
	// that answer (nothing adds an MSHR while the head is blocked), so
	// the head's per-cycle retries skip the lookup until it resets.
	stallLine uint64

	// missLat buffers this tick's miss latencies until tick reports
	// them, after every L1 access of the tick (DESIGN.md §12).
	missLat []uint64

	hitSample uint64 // hit counter for VFT sampling

	// probe window bookkeeping
	windowStart   uint64
	lastTolerance float64
	nextWarpID    int

	instructions uint64
	loadTxns     uint64
	storeTxns    uint64
	stallMSHR    uint64
}

func newSM(id int, cfg *Config, ctrl modes.Controller, l1 *cache.Cache, m *mem.System, data trace.DataSource) *sm {
	s := &sm{
		id:         id,
		cfg:        cfg,
		ctrl:       ctrl,
		mem:        m,
		lines:      trace.NewLineBuffer(data, cfg.Cache.LineSize),
		l1:         l1,
		slots:      make([]blockSlot, cfg.MaxBlocksPerSM),
		scheds:     make([]WarpScheduler, cfg.SchedulersPerSM),
		schedWarps: make([][]*warp, cfg.SchedulersPerSM),
		mshr:       make([]mshrEntry, 0, cfg.MSHRs),
		stallLine:  noStall,
	}
	for i := range s.scheds {
		s.scheds[i] = *NewWarpScheduler(cfg.Scheduler, cfg.MaxWarpsPerSM)
	}
	return s
}

// allocReq takes a request from the pool (fields zeroed by releaseReq).
func (s *sm) allocReq() *memReq {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return new(memReq)
}

// releaseReq returns a finished request to the pool.
func (s *sm) releaseReq(r *memReq) {
	r.w = nil
	r.addrs = nil
	r.next = 0
	r.readyMax = 0
	r.isStore = false
	s.reqFree = append(s.reqFree, r)
}

// newMemReq builds a pooled request, copying the instruction's addresses
// out of the program's (reusable) backing array.
func (s *sm) newMemReq(w *warp, addrs []uint64, store bool) *memReq {
	r := s.allocReq()
	r.w = w
	r.isStore = store
	if len(addrs) <= memReqAddrCap {
		n := copy(r.buf[:], addrs)
		r.addrs = r.buf[:n]
	} else {
		r.addrs = append([]uint64(nil), addrs...)
	}
	return r
}

// enqueue appends a request to the LSU queue. The queue only rewinds
// when it drains, and in a memory-bound phase it may never drain, so a
// full buffer whose front half is consumed slides its live requests to
// the front instead of growing.
func (s *sm) enqueue(r *memReq) {
	if len(s.lsu) == cap(s.lsu) && 2*s.lsuHead >= len(s.lsu) {
		n := copy(s.lsu, s.lsu[s.lsuHead:])
		clear(s.lsu[n:])
		s.lsu = s.lsu[:n]
		s.lsuHead = 0
	}
	s.lsu = append(s.lsu, r)
}

// launchBlock installs a block's warps onto the SM if a block slot and
// enough warp slots are free. Dispatch calls it every cycle while blocks
// are pending, so the refusal is O(1).
func (s *sm) launchBlock(k trace.Kernel, block int) bool {
	if s.activeBlocks == len(s.slots) || s.cfg.MaxWarpsPerSM-s.residentWarps < k.WarpsPerBlock {
		return false
	}
	slot := 0
	for s.slots[slot].active {
		slot++
	}
	ws := make([]warp, k.WarpsPerBlock)
	s.slots[slot] = blockSlot{active: true, remaining: k.WarpsPerBlock, warps: ws}
	for wi := range ws {
		w := &ws[wi]
		w.id = s.nextWarpID
		w.sched = s.nextWarpID % s.cfg.SchedulersPerSM
		w.blockSlot = slot
		w.prog = k.Program(block, wi)
		s.nextWarpID++
		w.pos = s.scheds[w.sched].Add()
		s.schedWarps[w.sched] = append(s.schedWarps[w.sched], w)
	}
	s.liveWarps += k.WarpsPerBlock
	s.activeBlocks++
	s.residentWarps += k.WarpsPerBlock
	if invariant.Active() {
		s.checkOccupancy()
	}
	return true
}

// compactWarps drops retired warps from the schedulers, keeping id order.
func (s *sm) compactWarps() {
	for si, ws := range s.schedWarps {
		s.scheds[si].Compact(func(p int) bool { return ws[p].flags&wDone == 0 })
		n := len(ws)
		ws = slices.DeleteFunc(ws, func(w *warp) bool { return w.flags&wDone != 0 })
		for p, w := range ws {
			w.pos = p
		}
		s.schedWarps[si] = ws
		s.residentWarps -= n - len(ws)
	}
	if invariant.Active() {
		s.checkOccupancy()
	}
}

// checkOccupancy is the paranoid check of launchBlock's counters: each
// must equal a recount of what it summarises.
func (s *sm) checkOccupancy() {
	active, resident := 0, 0
	for i := range s.slots {
		if s.slots[i].active {
			active++
		}
	}
	for _, ws := range s.schedWarps {
		resident += len(ws)
	}
	invariant.Assert(active == s.activeBlocks && resident == s.residentWarps,
		"sm %d: %d active blocks and %d resident warps counted, recount %d and %d",
		s.id, s.activeBlocks, s.residentWarps, active, resident)
}

// busy reports whether the SM still has work (live warps or in-flight
// memory activity).
func (s *sm) busy() bool {
	return s.liveWarps > 0 || len(s.lsu) > s.lsuHead || len(s.fills) > 0
}

// nextEvent returns the earliest cycle >= now at which this SM can do
// any work: the next pending fill, a lower bound on the next warp
// wake-up (WarpScheduler.NextWake), or the tolerance-window boundary
// (probeTolerance fires there and must observe the same `now` as a
// cycle-by-cycle run). A queued LSU request makes every cycle busy, so
// the method returns 0 in that case. Between ticks every blockedOnMem
// warp still has its request in the LSU queue — which is what lets
// Sim.Run prove cycles up to the returned value are no-ops and
// fast-forward across them without changing a single counter.
func (s *sm) nextEvent(now uint64) uint64 {
	if s.lsuHead < len(s.lsu) {
		return 0
	}
	next := s.windowStart + s.cfg.ToleranceWindow
	if len(s.fills) > 0 && s.fills[0].at < next {
		next = s.fills[0].at
	}
	for si := range s.scheds {
		next = min(next, s.scheds[si].NextWake(now))
	}
	return next
}

// tick runs one cycle of the SM and returns the instructions it issued:
// fills, LSU drain, scheduling, then this tick's miss latencies and the
// tolerance probe. Reporting the buffered latencies after the drain keeps
// every RecordMissLatency of a cycle after all of its RecordAccess calls
// (DESIGN.md §12).
func (s *sm) tick(now uint64) uint64 {
	s.applyFills(now)
	s.drainLSU(now)
	issued := s.schedule(now)
	for _, lat := range s.missLat {
		s.ctrl.RecordMissLatency(lat)
	}
	s.missLat = s.missLat[:0]
	s.probeTolerance(now)
	return issued
}

// applyFills installs miss responses whose data has arrived.
func (s *sm) applyFills(now uint64) {
	for len(s.fills) > 0 && s.fills[0].at <= now {
		ev := s.fills.pop()
		s.mshrRemove(ev.lineAddr)
		lineSize := uint64(s.cfg.Cache.LineSize)
		s.l1.Fill(ev.lineAddr*lineSize, s.lines, now)
	}
}

// mshrLookup returns the index of lineAddr's MSHR or -1.
//
//lint:hotpath
func (s *sm) mshrLookup(lineAddr uint64) int {
	for i := range s.mshr {
		if s.mshr[i].lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// mshrRemove frees lineAddr's MSHR (swap-remove).
func (s *sm) mshrRemove(lineAddr uint64) {
	s.stallLine = noStall
	if i := s.mshrLookup(lineAddr); i >= 0 {
		n := len(s.mshr) - 1
		s.mshr[i] = s.mshr[n]
		s.mshr = s.mshr[:n]
	}
}

// drainLSU processes up to L1Ports transactions from the LSU queue.
func (s *sm) drainLSU(now uint64) {
	budget := s.cfg.L1Ports
	for budget > 0 && s.lsuHead < len(s.lsu) {
		req := s.lsu[s.lsuHead]
		if req.isStore {
			addr := req.addrs[req.next]
			if s.cfg.Trace != nil {
				s.cfg.Trace.Record(s.id, now, addr, true)
			}
			if s.cfg.WriteThroughL1 {
				// Write-through: a write hit updates (and expands) the
				// cached copy before the store proceeds to L2.
				s.l1.WriteTouch(addr, now)
			}
			// Stores always go to L2 (write-avoid bypasses L1 entirely,
			// Section IV-C3).
			s.mem.Write(addr, now)
			s.storeTxns++
			req.next++
		} else {
			if !s.loadTxn(req, now) {
				// MSHR full: head-of-line block until entries free up.
				s.stallMSHR++
				return
			}
			s.loadTxns++
			req.next++
		}
		budget--
		if req.next >= len(req.addrs) {
			s.lsu[s.lsuHead] = nil
			s.lsuHead++
			if s.lsuHead == len(s.lsu) {
				s.lsu = s.lsu[:0]
				s.lsuHead = 0
			}
			if !req.isStore {
				// The ready time is final and always > now.
				s.unblock(req.w, req.readyMax, now)
			}
			s.releaseReq(req)
		}
	}
}

// loadTxn performs one load transaction; it returns false if the
// transaction needs an MSHR and none is free.
func (s *sm) loadTxn(req *memReq, now uint64) bool {
	addr := req.addrs[req.next]
	lineSize := uint64(s.cfg.Cache.LineSize)
	lineAddr := addr / lineSize

	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(s.id, now, addr, false)
	}
	res := s.l1.Access(addr, now)
	if res.Hit {
		if res.Ready > req.readyMax {
			req.readyMax = res.Ready
		}
		// Sample hit values into the high-capacity VFT (1 in 16 hits):
		// the table tracks value *use* frequency, and hit-dominated
		// phases would otherwise never refresh it.
		s.hitSample++
		if s.hitSample&0xF == 0 && s.l1.TrainsHighCap() {
			s.l1.TrainHighCap(s.lines.Line(lineAddr))
		}
		return true
	}
	// Miss. A stalled head retrying finds every MSHR still busy.
	if lineAddr == s.stallLine {
		if invariant.Active() {
			ok := s.mshrLookup(lineAddr) >= 0
			invariant.Assert(!ok && len(s.mshr) >= s.cfg.MSHRs,
				"sm %d: stalled line %#x: in MSHRs %v, %d of %d busy", s.id, lineAddr, ok, len(s.mshr), s.cfg.MSHRs)
		}
		return false
	}
	// Merge into an in-flight fetch if one exists, else fetch.
	var fillAt uint64
	if mi := s.mshrLookup(lineAddr); mi >= 0 {
		fillAt = s.mshr[mi].fillAt
	} else {
		if len(s.mshr) >= s.cfg.MSHRs {
			s.stallLine = lineAddr
			return false
		}
		fillAt = s.mem.Read(addr, now)
		s.mshr = append(s.mshr, mshrEntry{lineAddr: lineAddr, fillAt: fillAt})
		s.fills.push(fillEvent{at: fillAt, lineAddr: lineAddr})
		s.missLat = append(s.missLat, fillAt-now)
	}
	if ready := fillAt + s.cfg.Cache.HitLatency; ready > req.readyMax {
		req.readyMax = ready
	}
	return true
}

// schedule runs each warp scheduler once (one issue per scheduler per
// cycle, Table II: 2 schedulers per SM). Selection and the Equation 4
// readiness accounting live in WarpScheduler, which the differential
// oracle drives directly; this method issues the pick.
//
//lint:hotpath
func (s *sm) schedule(now uint64) uint64 {
	var issued uint64
	paranoid := invariant.Active()
	for si := range s.scheds {
		st := &s.scheds[si]
		if paranoid {
			st.advance(now)
			st.verify(now, s.schedWarps[si])
		}
		p, ok := st.Step(now)
		if !ok {
			continue
		}
		if s.issue(s.schedWarps[si][p], now) {
			st.Issues++
			issued++
		}
	}
	return issued
}

// unblock ends a warp's memory wait: it may issue again at cycle at.
func (s *sm) unblock(w *warp, at, now uint64) {
	w.flags &^= wBlockedMem
	if w.flags == 0 {
		s.scheds[w.sched].Wake(w.pos, at, now)
	}
}

// issue executes one instruction from the warp; it returns false when the
// warp had no instruction left (it retires instead).
func (s *sm) issue(w *warp, now uint64) bool {
	if !w.hasCur {
		inst, ok := w.prog.Next()
		if !ok {
			s.retire(w, now)
			return false
		}
		w.cur, w.hasCur = inst, true
	}
	inst := w.cur
	w.hasCur = false
	w.insts++
	s.instructions++

	lat := uint64(1)
	switch inst.Op {
	case trace.OpALU:
		lat = max(uint64(inst.Lat), 1)
	case trace.OpLoad:
		if len(inst.Addrs) > 0 {
			w.flags |= wBlockedMem
			s.scheds[w.sched].Park(w.pos)
			s.enqueue(s.newMemReq(w, inst.Addrs, false))
			return true
		}
	case trace.OpStore:
		if len(inst.Addrs) > 0 {
			s.enqueue(s.newMemReq(w, inst.Addrs, true))
		}
	case trace.OpBarrier:
		s.arriveBarrier(w, now)
		return true
	}
	s.scheds[w.sched].Wake(w.pos, now+lat, now)
	return true
}

// arriveBarrier parks the warp at its block's barrier, releasing the
// whole block once every live warp has arrived.
func (s *sm) arriveBarrier(w *warp, now uint64) {
	slot := &s.slots[w.blockSlot]
	w.flags |= wAtBarrier
	s.scheds[w.sched].Park(w.pos)
	slot.atBarrier++
	if slot.atBarrier < slot.remaining {
		return
	}
	// Last arrival: release everyone next cycle.
	s.releaseBarrier(w.blockSlot, now+1, now)
}

// releaseBarrier lets every warp waiting at block slot's barrier issue
// again from cycle at.
func (s *sm) releaseBarrier(slot int, at, now uint64) {
	s.slots[slot].atBarrier = 0
	for i := range s.slots[slot].warps {
		if o := &s.slots[slot].warps[i]; o.flags&(wDone|wAtBarrier) == wAtBarrier {
			o.flags &^= wAtBarrier
			if o.flags == 0 {
				s.scheds[o.sched].Wake(o.pos, at, now)
			}
		}
	}
}

// retire marks a warp finished and frees its block slot when the whole
// block has drained.
func (s *sm) retire(w *warp, now uint64) {
	if w.flags&wDone != 0 {
		return
	}
	w.flags |= wDone
	s.scheds[w.sched].Park(w.pos)
	s.liveWarps--
	slot := &s.slots[w.blockSlot]
	slot.remaining--
	if slot.remaining == 0 {
		slot.active = false
		s.activeBlocks--
		s.compactWarps() // free warp slots so waiting blocks can launch
		return
	}
	// A warp can retire while siblings wait at a barrier (divergent exit);
	// if it was the last one missing, release the block.
	if slot.atBarrier > 0 && slot.atBarrier >= slot.remaining {
		s.releaseBarrier(w.blockSlot, 0, now)
	}
}

// forceFinish terminates all warps (instruction budget exhausted).
func (s *sm) forceFinish(now uint64) {
	for i := range s.slots {
		for j := range s.slots[i].warps {
			s.retire(&s.slots[i].warps[j], now)
		}
	}
	for i := s.lsuHead; i < len(s.lsu); i++ {
		s.releaseReq(s.lsu[i])
		s.lsu[i] = nil
	}
	s.lsu = s.lsu[:0]
	s.lsuHead = 0
}

// probeTolerance folds the Equation 4 terms into the controller at window
// boundaries:
//
//	latency_tolerance = avg_warps_available × avg_execution_cycles_per_schedule
//
// For a GTO scheduler, a stalled warp is covered for roughly (other ready
// warps) × (cycles each runs before switching) cycles. With a round-robin
// scheduler the run length is 1 and the estimate degenerates to the ready
// warp count, matching the paper's Section III-B2 discussion.
func (s *sm) probeTolerance(now uint64) {
	if now < s.windowStart+s.cfg.ToleranceWindow {
		return
	}
	window := float64(now - s.windowStart)
	if window <= 0 {
		window = 1
	}
	var tol float64
	for si := range s.scheds {
		st := &s.scheds[si]
		avgReady := float64(st.ReadySum) / window
		execPerSched := 1.0
		if st.Switches > 0 {
			execPerSched = float64(st.Issues) / float64(st.Switches)
		}
		t := avgReady * execPerSched
		if t > tol {
			tol = t
		}
		st.ReadySum, st.Issues, st.Switches = 0, 0, 0
	}
	if tol > s.cfg.ToleranceCap {
		tol = s.cfg.ToleranceCap
	}
	s.ctrl.RecordTolerance(tol)
	s.lastTolerance = tol
	s.windowStart = now
}
