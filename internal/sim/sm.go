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
	// pending counts port loads issued on behalf of this request whose
	// fill time the arbiter has not resolved yet. A fully drained request
	// with pending > 0 parks on the deferred list until commit.
	pending int
	isStore bool
	buf     [memReqAddrCap]uint64
}

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

// mshrEntry is one outstanding L1 miss. While the cycle's port is still
// undrained the fill time is unknown and the entry is pending, pointing
// at the pendingLoad that will resolve it at commit.
type mshrEntry struct {
	lineAddr uint64
	fillAt   uint64 // valid once pending is false
	pending  bool
	pendIdx  int32 // index into sm.pend while pending
}

// pendingLoad tracks one port load issued this cycle: which port slot
// holds its arbiter-assigned fill time, which MSHR it fills, and the LSU
// requests waiting on it.
type pendingLoad struct {
	portIdx  int
	mshrIdx  int
	lineAddr uint64
	waiters  []*memReq
}

// blockSlot tracks one resident thread block.
type blockSlot struct {
	active    bool
	remaining int // warps not yet done
	atBarrier int // warps currently waiting at the block barrier
	warps     []warp
}

// sm is one streaming multiprocessor. During the compute phase of a
// cycle an sm touches only its own state (plus read-only config
// and the read-only data source): memory traffic goes to the per-SM
// port, never to the shared mem.System.
type sm struct {
	id    int
	cfg   *Config
	l1    *cache.Cache
	ctrl  modes.Controller
	port  *mem.Port
	data  trace.DataSource
	slots []blockSlot // resident blocks and their warps
	// scheds holds each scheduler's ready state; schedWarps[si] maps its
	// positions to its resident warps, in id order.
	scheds     []WarpScheduler
	schedWarps [][]*warp
	liveWarps  int

	// lsu is the in-order load/store queue; lsuHead indexes the current
	// front so dequeuing doesn't reslice away buffer capacity.
	lsu     []*memReq
	lsuHead int
	reqFree []*memReq // memReq pool

	// mshr holds outstanding misses. A linear scan over at most
	// Config.MSHRs (32) entries beats map hashing at this size, and a
	// slice has no iteration-order hazard. Entries are only removed in
	// applyFills, when no pendingLoad holds an index into the slice.
	mshr  []mshrEntry
	fills fillHeap

	// pend / deferred are the compute-to-commit handoff: loads awaiting
	// the arbiter's fill times and fully-drained requests whose warps
	// unblock at commit. waiterPool recycles the waiter slices.
	pend       []pendingLoad
	deferred   []*memReq
	waiterPool [][]*memReq

	// cycleInsts is the instruction count of the last tickCompute,
	// harvested by Run after commit.
	cycleInsts uint64

	hitSample uint64 // hit counter for VFT sampling

	// probe window bookkeeping
	windowStart   uint64
	lastTolerance float64
	nextWarpID    int

	instructions uint64
	loadTxns     uint64
	storeTxns    uint64
	stallMSHR    uint64

	// lineFill + lineBuf render line data into a per-SM scratch buffer
	// when the data source supports it (the cache never retains fill
	// slices, so reuse is safe).
	lineFill trace.LineFiller
	lineBuf  []byte
}

func newSM(id int, cfg *Config, ctrl modes.Controller, cacheCfg cache.Config, port *mem.Port, data trace.DataSource) *sm {
	s := &sm{
		id:         id,
		cfg:        cfg,
		ctrl:       ctrl,
		port:       port,
		data:       data,
		l1:         cache.New(cacheCfg, ctrl),
		slots:      make([]blockSlot, cfg.MaxBlocksPerSM),
		scheds:     make([]WarpScheduler, cfg.SchedulersPerSM),
		schedWarps: make([][]*warp, cfg.SchedulersPerSM),
		mshr:       make([]mshrEntry, 0, cfg.MSHRs),
	}
	for i := range s.scheds {
		s.scheds[i] = *NewWarpScheduler(cfg.Scheduler, cfg.MaxWarpsPerSM)
	}
	if lf, ok := data.(trace.LineFiller); ok {
		s.lineFill = lf
		s.lineBuf = make([]byte, cfg.Cache.LineSize)
	}
	return s
}

// line returns the backing data of lineAddr, using the per-SM scratch
// buffer when the source supports in-place rendering.
func (s *sm) line(lineAddr uint64) []byte {
	if s.lineFill != nil {
		s.lineFill.LineInto(s.lineBuf, lineAddr)
		return s.lineBuf
	}
	return s.data.Line(lineAddr)
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
	r.pending = 0
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

// launchBlock installs a block's warps onto the SM if a block slot and
// enough warp slots are free.
func (s *sm) launchBlock(k trace.Kernel, block int) bool {
	slot := slices.IndexFunc(s.slots, func(b blockSlot) bool { return !b.active })
	free := s.cfg.MaxWarpsPerSM
	for _, ws := range s.schedWarps {
		free -= len(ws) // retired warps count until compactWarps drops them
	}
	if slot < 0 || free < k.WarpsPerBlock {
		return false
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
	return true
}

// compactWarps drops retired warps from the schedulers, keeping id order.
func (s *sm) compactWarps() {
	for si, ws := range s.schedWarps {
		s.scheds[si].Compact(func(p int) bool { return ws[p].flags&wDone == 0 })
		ws = slices.DeleteFunc(ws, func(w *warp) bool { return w.flags&wDone != 0 })
		for p, w := range ws {
			w.pos = p
		}
		s.schedWarps[si] = ws
	}
}

// busy reports whether the SM still has work (live warps or in-flight
// memory activity). Only valid after commit, like every cross-SM read.
func (s *sm) busy() bool {
	return s.liveWarps > 0 || len(s.lsu) > s.lsuHead || len(s.fills) > 0
}

// nextEvent returns the earliest cycle >= now at which this SM can do
// any work: the next pending fill, a lower bound on the next warp
// wake-up (WarpScheduler.NextWake), or the tolerance-window boundary
// (probeTolerance fires there and must observe the same `now` as a
// cycle-by-cycle run). A queued LSU request makes every cycle busy, so
// the method returns 0 in that case. Only valid after commit, when
// pend/deferred are empty and every blockedOnMem warp still has its
// request in the LSU queue — which is what lets Sim.Run prove cycles up
// to the returned value are no-ops and fast-forward across them without
// changing a single counter.
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

// tickCompute is the first half of one cycle: fills, LSU drain into the
// port, and scheduling, all against SM-private state. The issued
// instruction count lands in cycleInsts for Run to harvest.
func (s *sm) tickCompute(now uint64) {
	s.applyFills(now)
	s.drainLSU(now)
	s.cycleInsts = s.schedule(now)
}

// commit is the second half of one cycle, run after the arbiter has
// drained the ports: resolve this cycle's fill times, unblock drained
// warps, and fold the tolerance probe. Commit runs in SM id order.
func (s *sm) commit(now uint64) {
	for i := range s.pend {
		p := &s.pend[i]
		fillAt := s.port.FillAt(p.portIdx)
		e := &s.mshr[p.mshrIdx]
		e.fillAt = fillAt
		e.pending = false
		s.fills.push(fillEvent{at: fillAt, lineAddr: p.lineAddr})
		s.ctrl.RecordMissLatency(fillAt - now)
		ready := fillAt + s.cfg.Cache.HitLatency
		for _, req := range p.waiters {
			if ready > req.readyMax {
				req.readyMax = ready
			}
			req.pending--
		}
		s.waiterPool = append(s.waiterPool, p.waiters[:0])
		p.waiters = nil
	}
	s.pend = s.pend[:0]
	s.port.Reset()

	for i, req := range s.deferred {
		s.unblock(req.w, req.readyMax, now)
		s.releaseReq(req)
		s.deferred[i] = nil
	}
	s.deferred = s.deferred[:0]

	s.probeTolerance(now)
}

// applyFills installs miss responses whose data has arrived.
func (s *sm) applyFills(now uint64) {
	for len(s.fills) > 0 && s.fills[0].at <= now {
		ev := s.fills.pop()
		s.mshrRemove(ev.lineAddr)
		lineSize := uint64(s.cfg.Cache.LineSize)
		s.l1.Fill(ev.lineAddr*lineSize, s.line(ev.lineAddr), now)
	}
}

// mshrLookup returns the index of lineAddr's MSHR or -1.
func (s *sm) mshrLookup(lineAddr uint64) int {
	for i := range s.mshr {
		if s.mshr[i].lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// mshrRemove frees lineAddr's MSHR (swap-remove; only called from
// applyFills, when no pendingLoad holds MSHR indices).
func (s *sm) mshrRemove(lineAddr uint64) {
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
			s.port.PushStore(addr)
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
			switch {
			case req.isStore:
				s.releaseReq(req)
			case req.pending == 0:
				// Every transaction hit or merged into an already-resolved
				// fill: the ready time is final. It is always > now, so
				// unblocking here vs at commit cannot change scheduling.
				s.unblock(req.w, req.readyMax, now)
				s.releaseReq(req)
			default:
				s.deferred = append(s.deferred, req)
			}
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
		if s.hitSample&0xF == 0 {
			s.l1.TrainHighCap(s.line(lineAddr))
		}
		return true
	}
	// Miss: merge into an in-flight fetch if one exists.
	if mi := s.mshrLookup(lineAddr); mi >= 0 {
		e := &s.mshr[mi]
		if e.pending {
			// Fill time unknown until the arbiter drains the port: join
			// the waiter list, resolved at commit.
			p := &s.pend[e.pendIdx]
			p.waiters = append(p.waiters, req)
			req.pending++
			return true
		}
		ready := e.fillAt + s.cfg.Cache.HitLatency
		if ready > req.readyMax {
			req.readyMax = ready
		}
		return true
	}
	if len(s.mshr) >= s.cfg.MSHRs {
		return false
	}
	portIdx := s.port.PushLoad(addr)
	var waiters []*memReq
	if n := len(s.waiterPool); n > 0 {
		waiters = s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
	}
	s.pend = append(s.pend, pendingLoad{
		portIdx:  portIdx,
		mshrIdx:  len(s.mshr),
		lineAddr: lineAddr,
		waiters:  append(waiters, req),
	})
	s.mshr = append(s.mshr, mshrEntry{
		lineAddr: lineAddr,
		pending:  true,
		pendIdx:  int32(len(s.pend) - 1),
	})
	req.pending++
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
			s.lsu = append(s.lsu, s.newMemReq(w, inst.Addrs, false))
			return true
		}
	case trace.OpStore:
		if len(inst.Addrs) > 0 {
			s.lsu = append(s.lsu, s.newMemReq(w, inst.Addrs, true))
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
		s.compactWarps() // free warp slots so waiting blocks can launch
		return
	}
	// A warp can retire while siblings wait at a barrier (divergent exit);
	// if it was the last one missing, release the block.
	if slot.atBarrier > 0 && slot.atBarrier >= slot.remaining {
		s.releaseBarrier(w.blockSlot, 0, now)
	}
}

// forceFinish terminates all warps (instruction budget exhausted). Run
// calls it after commit, so pend and deferred are empty.
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
