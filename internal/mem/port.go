package mem

// This file is the memory-side half of the simulator's two-phase cycle
// (DESIGN.md §12). During the compute phase of a cycle, SMs do not call
// System.Read/System.Write directly: each SM owns a Port and appends its
// transactions there, and after every SM has ticked the Arbiter drains
// the ports in (SM id, issue order). That order is the memory ordering
// the simulator's StateHash pins.

// PortRequest is one L1-miss fetch or store transaction queued on an
// SM's memory port during the compute phase of a cycle.
type PortRequest struct {
	// Addr is the byte address of the transaction.
	Addr uint64
	// Store marks an L2 write (stores bypass or write through L1).
	Store bool
	// FillAt is produced by the Arbiter for loads: the cycle the fill
	// data arrives back at the L1. Zero until the port is drained, and
	// meaningless for stores (the simulator never waits on them).
	FillAt uint64
}

// Port is one SM's outbound memory queue for the current cycle. It is
// written by exactly one SM during the compute phase and read by the
// arbiter after it; the buffer is
// preallocated and reused so steady-state cycles allocate nothing.
type Port struct {
	reqs []PortRequest
}

// NewPort returns a port with capacity for n requests before the slice
// has to grow. A good n is L1Ports (the most transactions an SM can
// start per cycle).
func NewPort(n int) *Port {
	return &Port{reqs: make([]PortRequest, 0, n)}
}

// PushLoad queues a fetch and returns its index, which stays valid until
// Reset and is how the SM finds the FillAt the arbiter wrote back.
func (p *Port) PushLoad(addr uint64) int {
	p.reqs = append(p.reqs, PortRequest{Addr: addr})
	return len(p.reqs) - 1
}

// PushStore queues a store. Stores have no response time: System.Write's
// return value was never consumed by SM code, so none is surfaced here.
func (p *Port) PushStore(addr uint64) {
	p.reqs = append(p.reqs, PortRequest{Addr: addr, Store: true})
}

// Len returns the number of queued requests.
func (p *Port) Len() int { return len(p.reqs) }

// FillAt returns the arbiter-assigned fill time of the load queued at
// index i. Only valid after the cycle's Drain.
func (p *Port) FillAt(i int) uint64 { return p.reqs[i].FillAt }

// Reset empties the port, keeping its buffer for the next cycle.
func (p *Port) Reset() { p.reqs = p.reqs[:0] }

// Arbiter drains a fixed set of ports into a System in deterministic
// order: ports in slice position order (SM id), requests within a port
// in issue order. Every queueing decision inside System — bank nextFree
// times, LRU state, channel contention — and therefore every counter and
// fill time follows from that order.
type Arbiter struct {
	sys   *System
	ports []*Port
}

// NewArbiter returns an arbiter over ports (position = SM id).
func NewArbiter(sys *System, ports []*Port) *Arbiter {
	return &Arbiter{sys: sys, ports: ports}
}

// Drain services every queued request against the System at cycle now,
// writing fill times back into the load requests. It is called once per
// cycle, after every SM's compute phase.
func (a *Arbiter) Drain(now uint64) {
	for _, p := range a.ports {
		for i := range p.reqs {
			r := &p.reqs[i]
			if r.Store {
				a.sys.Write(r.Addr, now)
			} else {
				r.FillAt = a.sys.Read(r.Addr, now)
			}
		}
	}
}
