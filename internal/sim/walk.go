package sim

import (
	"lattecc/internal/modes"
	"lattecc/internal/stats"
)

// Visitor receives the fields of a Result from Walk and returns the
// value to store back: a reading visitor (StateHash, the result store's
// encoder) returns its argument, a decoder what it read. It is a struct
// of funcs, not an interface, so a visitor built from closures over a
// stack variable stays on the stack and the walk allocates nothing.
type Visitor struct {
	String func(string) string
	Uint64 func(uint64) uint64
	Int32  func(int32) int32
	Byte   func(byte) byte
	// Len is handed a slice's length before its elements; Walk replaces
	// the slice with a zeroed one when Len answers another length.
	Len    func(int) int
	Series func(*stats.Series) *stats.Series
}

// Walk hands every field of r to v in one fixed order, the order of
// StateHash and of the result store's entries, and stores back what v
// returns. It writes a field only when the value differs, so a reading
// visitor never writes to r or to slices shared with its copies.
//
// This is the one list of Result's fields: a new counter is one line
// here. Changing the order changes every StateHash and the entry format.
func (r *Result) Walk(v Visitor) {
	v.str(&r.Policy)
	v.str(&r.Workload)
	v.u64(&r.Cycles)
	v.u64(&r.Instructions)

	c := &r.Cache
	for _, p := range [...]*uint64{
		&c.Accesses, &c.Hits, &c.Misses, &c.CompressedHits, &c.DecompWait,
		&c.DecompBusy, &c.DecompBufferHits, &c.Evictions, &c.Fills,
		&c.FlushedLines, &c.WriteExpansions, &c.UncompressedSize, &c.CompressedSize,
	} {
		v.u64(p)
	}
	for m := 0; m < modes.NumModes; m++ {
		v.u64(&c.InsertsByMode[m])
		v.u64(&c.HitsByMode[m])
		v.u64(&c.SubBlocksByMode[m])
		v.u64(&r.ModeEPs[m])
	}

	mm := &r.Mem
	for _, p := range [...]*uint64{
		&mm.L2Accesses, &mm.L2Hits, &mm.L2Misses, &mm.L2Writes,
		&mm.DRAMReads, &mm.DRAMWrites, &mm.BytesL1L2, &mm.BytesL2DRAM,
	} {
		v.u64(p)
	}

	walkLen(&v, &r.Kernels)
	for i := range r.Kernels {
		k := &r.Kernels[i]
		v.str(&k.Name)
		v.u64(&k.Cycles)
		v.u64(&k.Start)
	}

	v.u64(&r.LoadTxns)
	v.u64(&r.StoreTxns)
	v.u64(&r.MSHRStallCycles)
	v.u64(&r.Switches)

	walkLen(&v, &r.EPLog)
	for i, m := range r.EPLog {
		set(&r.EPLog[i], modes.Mode(v.Byte(byte(m))))
	}
	walkLen(&v, &r.EPKernels)
	for i, k := range r.EPKernels {
		set(&r.EPKernels[i], v.Int32(k))
	}

	set(&r.ToleranceSeries, v.Series(r.ToleranceSeries))
	set(&r.CapacitySeries, v.Series(r.CapacitySeries))
}

func (v *Visitor) str(p *string) { set(p, v.String(*p)) }

func (v *Visitor) u64(p *uint64) { set(p, v.Uint64(*p)) }

func walkLen[E any](v *Visitor, s *[]E) {
	if n := v.Len(len(*s)); n != len(*s) {
		*s = make([]E, n)
	}
}

func set[T comparable](p *T, x T) {
	if x != *p {
		*p = x
	}
}
