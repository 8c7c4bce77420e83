// Package mem models the GPU memory system below the L1 data caches: the
// banked unified L2 cache, the DRAM channels, and the interconnect traffic
// accounting. The model is latency-and-occupancy analytic rather than
// cycle-stepped: every request computes its completion time from the
// minimum latency plus queueing at the bank/channel it uses, which captures
// the first-order contention effects (bandwidth saturation, bank camping)
// that the paper's workloads exercise, without a per-cycle event loop.
//
// Table II parameters: 768KB unified L2, 128B lines, 8 ways, 12 banks,
// minimum 120-cycle L2 access latency, minimum 230-cycle DRAM latency.
package mem

import (
	"fmt"

	"lattecc/internal/invariant"
	"lattecc/internal/slab"
)

// Config describes the memory system.
type Config struct {
	LineSize int // cache line size in bytes

	L2SizeBytes int    // total L2 capacity
	L2Ways      int    // associativity
	L2Banks     int    // number of independent banks
	L2Latency   uint64 // minimum L1-miss-to-L2-data latency (incl. NoC)
	L2Service   uint64 // bank occupancy per request (bandwidth model)

	DRAMChannels int    // number of DRAM channels
	DRAMLatency  uint64 // minimum additional latency for an L2 miss
	DRAMService  uint64 // channel occupancy per request
}

// DefaultConfig returns the Table II configuration.
func DefaultConfig() Config {
	return Config{
		LineSize:     128,
		L2SizeBytes:  768 * 1024,
		L2Ways:       8,
		L2Banks:      12,
		L2Latency:    120,
		L2Service:    2,
		DRAMChannels: 6,
		DRAMLatency:  230,
		DRAMService:  8,
	}
}

// Stats counts memory-system events for performance and energy reporting.
type Stats struct {
	L2Accesses  uint64
	L2Hits      uint64
	L2Misses    uint64
	L2Writes    uint64
	DRAMReads   uint64
	DRAMWrites  uint64
	BytesL1L2   uint64 // interconnect traffic between SMs and L2
	BytesL2DRAM uint64 // off-chip traffic
}

// System is the shared memory hierarchy below the per-SM L1 caches.
type System struct {
	cfg   Config
	tags  []uint64 // every bank's tags; each l2Bank holds its window
	banks []l2Bank
	chans []uint64 // per-channel next-free cycle
	stats Stats
}

// Validate reports whether the config builds a memory system (bounds: sim's).
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.L2Ways <= 0 || c.L2Banks <= 0 || c.DRAMChannels <= 0 {
		return fmt.Errorf("mem: line size, L2 ways, L2 banks and DRAM channels must be positive: %+v", c)
	}
	if c.LineSize < 4 { // an L2 tag word must not wrap (l2Bank)
		return fmt.Errorf("mem: line size %d is below 4 bytes", c.LineSize)
	}
	if c.L2SizeBytes/c.LineSize/c.L2Ways < c.L2Banks { // no set per bank, without overflowing the product
		return fmt.Errorf("mem: L2 of %d bytes is too small for %d banks of %d ways", c.L2SizeBytes, c.L2Banks, c.L2Ways)
	}
	return nil
}

// New creates a memory system; it panics with cfg.Validate's error.
func New(cfg Config) *System { return NewOn(cfg, Buffers{}) }

// Buffers holds the tag array of a finished System for NewOn to build
// the next one on. The zero value holds none.
type Buffers struct{ tags []uint64 }

// NewOn is New on b's tag array, when it is large enough; the System
// zeroes it and owns it from here on.
func NewOn(cfg Config, b Buffers) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	setsPerBank := cfg.L2SizeBytes / (cfg.LineSize * cfg.L2Ways * cfg.L2Banks)
	n := setsPerBank * cfg.L2Ways
	tags := slab.Reuse(b.tags, cfg.L2Banks*n)
	s := &System{cfg: cfg, tags: tags, banks: make([]l2Bank, cfg.L2Banks), chans: make([]uint64, cfg.DRAMChannels)}
	for i := range s.banks {
		s.banks[i] = l2Bank{tags: tags[i*n : (i+1)*n : (i+1)*n], sets: uint64(setsPerBank), ways: cfg.L2Ways}
	}
	return s
}

// Buffers returns s's tag array for NewOn. Call it once s is no longer
// used: the System built on it overwrites it.
func (s *System) Buffers() Buffers { return Buffers{tags: s.tags} }

// AssertFresh reports an invariant violation unless s holds no line,
// as New's System does: every tag word is 0.
func (s *System) AssertFresh() {
	for i, w := range s.tags {
		if w != 0 {
			invariant.Violationf("L2: tag word %d of a new memory system is %#x, want 0", i, w)
		}
	}
}

// Stats returns a copy of the event counters.
func (s *System) Stats() Stats { return s.stats }

// Read services an L1 read miss for the line containing addr, issued at
// cycle now, and returns the cycle at which the fill data arrives at the
// L1. The line is installed in L2 on an L2 miss.
//
//lint:hotpath
func (s *System) Read(addr uint64, now uint64) uint64 {
	line := addr / uint64(s.cfg.LineSize)
	bank := &s.banks[line%uint64(len(s.banks))]
	s.stats.L2Accesses++
	s.stats.BytesL1L2 += uint64(s.cfg.LineSize)

	start := max64(now, bank.nextFree)
	bank.nextFree = start + s.cfg.L2Service

	hit, wb := bank.access(line/uint64(len(s.banks)), false)
	if hit {
		s.stats.L2Hits++
		return start + s.cfg.L2Latency
	}
	s.stats.L2Misses++
	done := s.dramAccess(line, start+s.cfg.L2Latency, false)
	if wb {
		// Dirty victim: write-back occupies the DRAM channel but is off
		// the read's critical path.
		s.dramAccess(line, start+s.cfg.L2Latency, true)
	}
	return done
}

// Write services a store. The paper models L1 as write-avoid (Section
// IV-C3), so stores bypass L1 and go straight to L2 (write-allocate).
// The returned cycle is when the write is accepted; stores do not stall
// the warp beyond issue in this model.
//
//lint:hotpath
func (s *System) Write(addr uint64, now uint64) uint64 {
	line := addr / uint64(s.cfg.LineSize)
	bank := &s.banks[line%uint64(len(s.banks))]
	s.stats.L2Accesses++
	s.stats.L2Writes++
	s.stats.BytesL1L2 += uint64(s.cfg.LineSize)

	start := max64(now, bank.nextFree)
	bank.nextFree = start + s.cfg.L2Service
	hit, wb := bank.access(line/uint64(len(s.banks)), true)
	if hit {
		s.stats.L2Hits++
		return start + s.cfg.L2Service
	}
	s.stats.L2Misses++
	// Write-allocate: fetch the line from DRAM, mark it dirty; the dirty
	// data reaches DRAM later, when the line is written back on eviction.
	s.dramAccess(line, start+s.cfg.L2Latency, false)
	if wb {
		s.dramAccess(line, start+s.cfg.L2Latency, true)
	}
	return start + s.cfg.L2Service
}

// dramAccess models one DRAM transaction starting no earlier than ready.
//
//lint:hotpath
func (s *System) dramAccess(line uint64, ready uint64, write bool) uint64 {
	ch := int(line % uint64(len(s.chans)))
	start := max64(ready, s.chans[ch])
	s.chans[ch] = start + s.cfg.DRAMService
	if write {
		s.stats.DRAMWrites++
	} else {
		s.stats.DRAMReads++
	}
	s.stats.BytesL2DRAM += uint64(s.cfg.LineSize)
	return start + s.cfg.DRAMLatency
}

// l2Bank is one set-associative L2 bank with true-LRU replacement. Tags
// are real so L2 hit rates reflect actual workload reuse, but no data is
// stored (values live in the workload backing store). The bank's tags are
// its window of one array the System allocates: each set is ways
// consecutive words, most recently used first and free words (0) last.
// A word is (local line + 1) << 1 | dirty. Lines are at least 4 bytes
// (Validate), so local lines are below 2^62, no word wraps and 0 names
// no line.
type l2Bank struct {
	tags     []uint64
	sets     uint64
	ways     int
	nextFree uint64
}

// access looks a line up and installs it on a miss, in one pass over its
// set: a hit moves the line's word to the front, a miss puts the line at
// the front and evicts the last word when the set is full. dirty marks
// the line modified (store). It returns whether the line hit and whether
// a dirty victim was evicted (the caller issues the write-back). The
// caller passes the bank-local line number (global line / numBanks) so
// that all sets are reachable regardless of the bank count.
//
//lint:hotpath
func (b *l2Bank) access(line uint64, dirty bool) (hit, wroteBack bool) {
	i := int(line%b.sets) * b.ways
	set := b.tags[i : i+b.ways]
	key := line + 1
	var d uint64
	if dirty {
		d = 1
	}
	carry := key<<1 | d
	for j, w := range set { // each step moves the word before j one slot back
		set[j] = carry
		switch {
		case w>>1 == key:
			set[0] = w | d
			return true, false
		case w == 0:
			return false, false
		}
		carry = w
	}
	return false, carry&1 != 0
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
