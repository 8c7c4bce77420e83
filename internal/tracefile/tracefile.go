// Package tracefile records L1 access traces from full simulations and
// replays them through the compressed cache alone. Replay skips the SM
// pipeline entirely, so cache-policy questions (hit rates, compression
// ratios, insertion mixes under different controllers) answer one to two
// orders of magnitude faster than re-simulating — the standard
// trace-driven companion to an execution-driven simulator.
//
// The binary format is deliberately simple and delta-compressed:
//
//	magic "LCT1" | uvarint workloadNameLen | name bytes
//	records: uvarint sm | uvarint cycleDelta | uvarint lineAddr | byte flags
//
// cycleDelta is relative to the previous record of the same SM. flags bit
// 0 is the write bit. Timing is advisory on replay (the cache model is
// structural); it is preserved so decompressor-queue effects stay
// meaningful.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"lattecc/internal/cache"
	"lattecc/internal/modes"
	"lattecc/internal/trace"
)

// magic identifies trace files.
const magic = "LCT1"

// Record is one L1 access.
type Record struct {
	SM    int
	Cycle uint64
	Addr  uint64
	Write bool
}

// Writer streams records to an underlying writer.
type Writer struct {
	w         *bufio.Writer
	lastCycle map[int]uint64
	count     uint64
	err       error
}

// NewWriter writes a trace header for the named workload.
func NewWriter(w io.Writer, workloadName string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(workloadName)))
	bw.Write(buf[:n])
	bw.WriteString(workloadName)
	return &Writer{w: bw, lastCycle: make(map[int]uint64)}, nil
}

// Record implements the simulator's access hook.
func (t *Writer) Record(sm int, cycle uint64, addr uint64, write bool) {
	if t.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	emit := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		if _, err := t.w.Write(buf[:n]); err != nil {
			t.err = err
		}
	}
	last := t.lastCycle[sm]
	delta := uint64(0)
	if cycle > last {
		delta = cycle - last
	}
	t.lastCycle[sm] = cycle
	emit(uint64(sm))
	emit(delta)
	emit(addr)
	flags := byte(0)
	if write {
		flags |= 1
	}
	if t.err == nil {
		t.err = t.w.WriteByte(flags)
	}
	t.count++
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush completes the trace.
func (t *Writer) Flush() error {
	if t.err != nil {
		return fmt.Errorf("tracefile: %w", t.err)
	}
	return t.w.Flush()
}

// Reader iterates a trace.
type Reader struct {
	r         *bufio.Reader
	workload  string
	lastCycle map[int]uint64
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("tracefile: header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", head)
	}
	n, err := readUvarint(br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // header promised a name length
		}
		return nil, fmt.Errorf("tracefile: name length: %w", err)
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("tracefile: implausible name length %d", n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("tracefile: name: %w", err)
	}
	return &Reader{r: br, workload: string(name), lastCycle: make(map[int]uint64)}, nil
}

// Workload returns the workload name stored in the header.
func (r *Reader) Workload() string { return r.workload }

// Next returns the next record, or io.EOF at the end. io.EOF only ever
// means a clean end on a record boundary: a stream cut anywhere inside
// a record — including mid-uvarint — comes back as a wrapped
// io.ErrUnexpectedEOF, never a silent short read.
func (r *Reader) Next() (Record, error) {
	sm, err := readUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF // clean end between records
		}
		return Record{}, fmt.Errorf("tracefile: truncated record (sm): %w", err)
	}
	delta, err := r.readField("cycle delta")
	if err != nil {
		return Record{}, err
	}
	addr, err := r.readField("line addr")
	if err != nil {
		return Record{}, err
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, fmt.Errorf("tracefile: truncated record (flags): %w", err)
	}
	cycle := r.lastCycle[int(sm)] + delta
	r.lastCycle[int(sm)] = cycle
	return Record{SM: int(sm), Cycle: cycle, Addr: addr, Write: flags&1 != 0}, nil
}

// readField decodes a uvarint that must be present — the record already
// started, so even a clean EOF here is a truncation.
func (r *Reader) readField(name string) (uint64, error) {
	v, err := readUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("tracefile: truncated record (%s): %w", name, err)
	}
	return v, nil
}

// readUvarint is binary.ReadUvarint with honest truncation reporting:
// the stdlib version returns a bare io.EOF even when the stream dies in
// the middle of a multi-byte varint, which a record loop would mistake
// for a clean end of trace. Here io.EOF can only surface before the
// first byte; EOF after that becomes io.ErrUnexpectedEOF.
func readUvarint(br *bufio.Reader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == binary.MaxVarintLen64 || (i == binary.MaxVarintLen64-1 && b > 1) {
			return 0, fmt.Errorf("uvarint overflows 64 bits")
		}
		if b < 0x80 {
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// ReplayResult aggregates per-policy replay statistics.
type ReplayResult struct {
	Workload string
	Policy   string
	Records  uint64
	Cache    cache.Stats // aggregated over SMs
}

// Replay drives a trace through one compressed cache per SM, with a fresh
// controller from the factory for each, filling misses from the data
// source. Each cache is built as sim.New builds an SM's L1
// (cache.NewL1), and all of them share one size memo. Writes are ignored
// (the simulated L1 is write-avoid).
//
// Replay is structural, not timed: misses fill immediately instead of
// after the memory latency, so lines become resident slightly earlier
// than in the execution-driven run and secondary misses to in-flight
// lines turn into hits. Expect replayed hit counts within a couple of
// percent of the full simulation — the standard trade of trace-driven
// models.
func Replay(r *Reader, cacheCfg cache.Config, factory func(numSets int) modes.Controller, data trace.DataSource, policyName string) (ReplayResult, error) {
	res := ReplayResult{Workload: r.Workload(), Policy: policyName}
	caches := map[int]*cache.Cache{}
	numSets := cacheCfg.SizeBytes / (cacheCfg.LineSize * cacheCfg.Ways)
	memo := cache.NewSizeMemo(nil)
	lines := trace.NewLineBuffer(data, cacheCfg.LineSize)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		if rec.Write {
			continue
		}
		c := caches[rec.SM]
		if c == nil {
			c = cache.NewL1(cacheCfg, factory(numSets), memo, cache.Buffers{})
			caches[rec.SM] = c
		}
		res.Records++
		if out := c.Access(rec.Addr, rec.Cycle); !out.Hit {
			c.Fill(rec.Addr, lines, rec.Cycle)
		}
	}
	for _, c := range caches {
		res.Cache.Add(c.Stats())
	}
	return res, nil
}
