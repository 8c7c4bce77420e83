// Package trace defines the execution abstractions the simulator runs:
// per-warp instruction programs, kernels, and workloads. Programs are lazy
// generators, so multi-million-instruction workloads never materialize
// full traces in memory.
//
// The model is deliberately latency-accurate rather than ISA-accurate: an
// instruction is an opcode, a latency, and (for memory operations) the set
// of coalesced line-granular transactions the warp's 32 threads produce.
// That is exactly the level at which cache compression and warp-level
// latency hiding interact; PTX decoding fidelity adds nothing to the
// studied mechanisms (see DESIGN.md, substitutions table).
package trace

import "fmt"

// OpKind is the instruction class.
type OpKind uint8

const (
	// OpALU is a compute instruction with a fixed latency; the issuing
	// warp cannot issue again until the latency elapses (dependent-chain
	// model).
	OpALU OpKind = iota
	// OpLoad reads memory; the warp blocks until all transactions return.
	OpLoad
	// OpStore writes memory; stores retire without blocking the warp
	// beyond the issue cycle (GPU write-avoid L1, Section IV-C3).
	OpStore
	// OpBarrier blocks the warp until every live warp of its thread
	// block has reached a barrier (__syncthreads).
	OpBarrier
)

// Inst is one warp-level instruction.
type Inst struct {
	Op OpKind
	// Lat is the execution latency for OpALU (>= 1).
	Lat uint32
	// Addrs are the byte addresses of the coalesced transactions of a
	// memory instruction: one entry per distinct cache line touched by
	// the warp (1 for fully coalesced, up to 32 for fully divergent).
	Addrs []uint64
}

// Program yields a warp's instruction stream.
type Program interface {
	// Next returns the next instruction, or ok=false when the warp ends.
	//
	// The returned Inst.Addrs slice is only valid until the next call to
	// Next on the same Program: generators may reuse one backing array to
	// keep multi-million-instruction runs allocation-free. Consumers that
	// hold a memory instruction across issue boundaries (the simulator's
	// LSU does) must copy the addresses out.
	Next() (inst Inst, ok bool)
}

// Kernel is one GPU kernel launch: a grid of thread blocks, each composed
// of warps running programs produced by the factory.
type Kernel struct {
	// Name identifies the kernel in per-kernel reports (Kernel-OPT).
	Name string
	// Blocks is the number of thread blocks in the grid.
	Blocks int
	// WarpsPerBlock is the warp count per block.
	WarpsPerBlock int
	// Program builds the instruction stream for one warp.
	Program func(block, warp int) Program
}

// Validate panics on malformed kernels — kernels are authored inside this
// repository, so errors are programming mistakes.
func (k Kernel) Validate() {
	if k.Blocks <= 0 || k.WarpsPerBlock <= 0 || k.Program == nil {
		panic(fmt.Sprintf("trace: malformed kernel %q: %+v", k.Name, k))
	}
}

// Category classifies workloads by cache sensitivity (Section IV-B: more
// than 20%% speedup with a 4x cache → cache sensitive).
type Category uint8

const (
	// CInSens marks cache-insensitive workloads.
	CInSens Category = iota
	// CSens marks cache-sensitive workloads.
	CSens
)

// String returns the paper's abbreviation for the category.
func (c Category) String() string {
	if c == CSens {
		return "C-Sens"
	}
	return "C-InSens"
}

// DataSource supplies the backing data for cache lines, so compression
// operates on real bytes. lineAddr is the line number (byte address /
// line size); implementations must return exactly one line-size slice and
// must be deterministic for a given address.
type DataSource interface {
	Line(lineAddr uint64) []byte
}

// LineFiller is an optional DataSource extension: LineInto renders the
// line into caller-owned storage instead of allocating a fresh slice per
// call. LineBuffer probes for it. dst must be exactly one line long; the
// fill must overwrite every byte (callers reuse dst across lines).
type LineFiller interface {
	LineInto(dst []byte, lineAddr uint64)
}

// LineBuffer renders a DataSource's lines into one reused buffer when
// the source is a LineFiller, and through Line otherwise. The slice Line
// returns is valid until the next call, which suits the simulator's
// consumers: the cache's fill path and the SC value table read fill data
// without retaining it.
type LineBuffer struct {
	data DataSource
	fill LineFiller
	buf  []byte
}

// NewLineBuffer returns a LineBuffer over data for lines of lineSize
// bytes.
func NewLineBuffer(data DataSource, lineSize int) *LineBuffer {
	b := &LineBuffer{data: data}
	if lf, ok := data.(LineFiller); ok {
		b.fill = lf
		b.buf = make([]byte, lineSize)
	}
	return b
}

// Line returns the bytes of lineAddr.
func (b *LineBuffer) Line(lineAddr uint64) []byte {
	if b.fill != nil {
		b.fill.LineInto(b.buf, lineAddr)
		return b.buf
	}
	return b.data.Line(lineAddr)
}

// Workload is a complete benchmark: its kernels and its data image.
type Workload interface {
	// Name returns the paper's abbreviation (e.g. "SS", "BC").
	Name() string
	// Category returns the cache-sensitivity class.
	Category() Category
	// Kernels returns the kernels executed in order.
	Kernels() []Kernel
	// Data returns the backing store for the workload's address space.
	Data() DataSource
}

// SliceProgram replays a fixed instruction slice; used by tests and
// micro-workloads.
type SliceProgram struct {
	insts []Inst
	pos   int
}

// NewSliceProgram returns a Program over the given instructions.
func NewSliceProgram(insts []Inst) *SliceProgram { return &SliceProgram{insts: insts} }

// Next implements Program.
func (p *SliceProgram) Next() (Inst, bool) {
	if p.pos >= len(p.insts) {
		return Inst{}, false
	}
	i := p.insts[p.pos]
	p.pos++
	return i, true
}

// FuncProgram adapts a closure to Program.
type FuncProgram func() (Inst, bool)

// Next implements Program.
func (f FuncProgram) Next() (Inst, bool) { return f() }
