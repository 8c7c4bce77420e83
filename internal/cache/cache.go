// Package cache implements the compressed GPU L1 data cache of the
// LATTE-CC paper (Section IV-A): a sectored, set-associative cache
// provisioned with four times the tag blocks of the baseline, storing
// compressed data in 32-byte sub-blocks. A set that holds only
// uncompressed lines degenerates to the baseline 4-way cache; fully
// compressed 32-byte lines let a set hold up to 16 lines in the same data
// space.
//
// The cache is a pure structure: it performs lookups, insertions with
// compression, evictions, and decompression-queue timing, but does not
// talk to the memory system. The SM model (package sim) handles misses,
// MSHRs, and fills.
package cache

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"lattecc/internal/compress"
	"lattecc/internal/invariant"
	"lattecc/internal/modes"
)

// SubBlockSize is the compressed data allocation granularity in bytes
// (Section IV-A: "allows data to be stored in 32B sub blocks").
const SubBlockSize = 32

// TagFactor is the tag over-provisioning of the compressed cache
// (Section IV-A: "provisioned with four times the tag blocks").
const TagFactor = 4

// Config describes one L1 data cache instance.
type Config struct {
	SizeBytes int // data capacity (Table II: 16KB per SM)
	LineSize  int // 128B
	Ways      int // baseline associativity (4)

	// HitLatency is the baseline L1 hit latency in cycles, before any
	// decompression penalty.
	HitLatency uint64
	// ExtraHitLatency is added to every hit; the Figure 1 sensitivity
	// sweep uses it to study hit-latency tolerance in isolation.
	ExtraHitLatency uint64

	// Codecs maps each compression mode to its codec. Codecs[modes.None]
	// is ignored; LowLat/HighCap must be set if the controller can ever
	// select those modes.
	Codecs [modes.NumModes]compress.Codec

	// CapacityOnly makes decompression free (0 extra cycles). It isolates
	// the capacity benefit of compression — the Figure 3 upper bound.
	CapacityOnly bool
	// LatencyOnly stores every line at full size while still charging
	// decompression latency — the Figure 4 penalty-only study.
	LatencyOnly bool
	// UnboundedDecompressor removes decompression-queue contention
	// (infinite bandwidth); an ablation of the Equation 3 queue term.
	UnboundedDecompressor bool
	// DecompInitInterval is the decompressor's initiation interval in
	// cycles: a new decompression can start every II cycles (the unit is
	// pipelined, as the SC hardware of Section IV-C2 must be to sustain
	// GPU hit bandwidth). Requests arriving faster queue (Equation 3).
	// 0 defaults to 2.
	DecompInitInterval uint64
	// DecompBufferEntries enables an extension beyond the paper: a small
	// fully-associative buffer of recently decompressed lines. A hit in
	// the buffer returns data without re-decompressing, cutting both
	// latency and decompressor contention for hot compressed lines.
	// 0 (the paper's design) disables it.
	DecompBufferEntries int
}

// FreshCodecs returns a new codec array matching c.Codecs, so each
// cache gets independent SC state. Stateless codecs could be shared,
// but SC carries a VFT and code book per cache.
func (c Config) FreshCodecs() [modes.NumModes]compress.Codec {
	var out [modes.NumModes]compress.Codec
	for m, codec := range c.Codecs {
		switch codec.(type) {
		case nil:
		case *compress.SC:
			out[m] = compress.NewSC()
		case *compress.BDI:
			out[m] = compress.NewBDI()
		case *compress.BPC:
			out[m] = compress.NewBPC()
		case *compress.FPC:
			out[m] = compress.NewFPC()
		case *compress.CPACK:
			out[m] = compress.NewCPACK()
		default:
			out[m] = codec
		}
	}
	return out
}

// Stats counts cache events.
type Stats struct {
	Accesses         uint64
	Hits             uint64
	Misses           uint64
	CompressedHits   uint64
	DecompWait       uint64 // total decompression-queue wait cycles
	DecompBusy       uint64 // total cycles spent decompressing
	DecompBufferHits uint64 // decompressions avoided by the line buffer
	Evictions        uint64
	Fills            uint64
	FlushedLines     uint64 // lines invalidated by code-book rebuilds
	WriteExpansions  uint64 // compressed lines expanded by write hits

	InsertsByMode    [modes.NumModes]uint64
	HitsByMode       [modes.NumModes]uint64 // hits by the hit line's stored mode
	SubBlocksByMode  [modes.NumModes]uint64 // sub-blocks allocated at insert
	UncompressedSize uint64                 // bytes represented by all fills
	CompressedSize   uint64                 // bytes stored for all fills
}

// Add accumulates another cache's counters into s, field by field (the
// same shape as energy.SavingsBreakdown.Add). The simulator merges its
// per-SM L1 stats with this instead of a hand-rolled loop, so a field
// added to Stats is aggregated — and therefore StateHash-covered — by
// construction; TestStatsAddCoversEveryField enforces completeness by
// reflection.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.CompressedHits += o.CompressedHits
	s.DecompWait += o.DecompWait
	s.DecompBusy += o.DecompBusy
	s.DecompBufferHits += o.DecompBufferHits
	s.Evictions += o.Evictions
	s.Fills += o.Fills
	s.FlushedLines += o.FlushedLines
	s.WriteExpansions += o.WriteExpansions
	s.UncompressedSize += o.UncompressedSize
	s.CompressedSize += o.CompressedSize
	s.AddModes(o)
}

// AddModes accumulates only the per-mode (mode-indexed) counters of o.
func (s *Stats) AddModes(o Stats) {
	for m := 0; m < modes.NumModes; m++ {
		s.InsertsByMode[m] += o.InsertsByMode[m]
		s.HitsByMode[m] += o.HitsByMode[m]
		s.SubBlocksByMode[m] += o.SubBlocksByMode[m]
	}
}

// HitRate returns hits/accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// AvgCompressionRatio returns the insertion-weighted compression ratio.
func (s Stats) AvgCompressionRatio() float64 {
	if s.CompressedSize == 0 {
		return 1
	}
	return float64(s.UncompressedSize) / float64(s.CompressedSize)
}

// Result reports the outcome of one access.
type Result struct {
	Hit      bool
	LineMode modes.Mode // mode the hit line was stored with
	// ExtraLatency is the decompression penalty actually experienced:
	// decompression latency plus queue wait (Equation 3). Zero for
	// uncompressed hits and for misses.
	ExtraLatency uint64
	// Ready is the cycle the data is available on a hit (undefined on
	// miss): now + HitLatency + ExtraHitLatency + ExtraLatency.
	Ready uint64
}

// line is one tag entry of the compressed cache; its tag lives in the
// set's packed tag array. The narrow fields keep a line at 16 bytes: New
// bounds the sub-blocks per line, and a code book is rebuilt at most once
// per period, so no run reaches 2^32 generations.
type line struct {
	valid     bool
	mode      modes.Mode
	subBlocks uint16
	gen       uint32 // HighCap code-book generation
	lru       uint64
}

// invalidTag marks an empty entry of a set's tag array. No line address
// reaches it: a line address is a byte address divided by LineSize > 1.
const invalidTag = ^uint64(0)

// set is one cache set: TagFactor×Ways tags sharing Ways×LineSize bytes of
// data storage, allocated in sub-blocks. tags[i] is lines[i]'s tag when
// that line is valid and invalidTag otherwise, so a lookup scans 8 bytes
// per entry instead of a whole line.
type set struct {
	tags     []uint64
	lines    []line
	freeSub  int
	lruClock uint64
	totalSub int
}

// find returns the index of lineAddr's entry in the set, or -1.
//
//lint:hotpath
func (s *set) find(lineAddr uint64) int {
	for i, t := range s.tags {
		if t == lineAddr {
			return i
		}
	}
	return -1
}

// Cache is one SM's L1 data cache.
type Cache struct {
	cfg      Config
	ctrl     modes.Controller
	sets     []set
	numSets  int
	stats    Stats
	validCnt int // valid lines across all sets (effective capacity probe)

	// decompressor occupancy (one unit per SM, shared by both schedulers)
	decompFree uint64
	// decompBuf holds the line addresses of recently decompressed lines
	// (FIFO); see Config.DecompBufferEntries.
	decompBuf []uint64

	// trainer is the high-capacity codec when it learns from line data
	// (SC does; BPC is stateless), else nil.
	trainer *compress.SC
	// sizes[m] is the run's shared size table for mode m's codec when
	// that codec is stateless and the cache was built by NewL1; nil
	// otherwise (see SizeMemo).
	sizes [modes.NumModes]*sizeTable
}

// Validate reports whether the geometry builds a cache (bounds: sim's).
func (c Config) Validate() error {
	switch {
	case c.LineSize <= 0 || c.Ways <= 0 || c.SizeBytes <= 0:
		return fmt.Errorf("cache: size %d, line size %d and ways %d must be positive", c.SizeBytes, c.LineSize, c.Ways)
	case c.LineSize%SubBlockSize != 0 || c.LineSize/SubBlockSize > math.MaxUint16:
		return fmt.Errorf("cache: line size %d must be a multiple of the %d-byte sub-block, at most 65535 of them", c.LineSize, SubBlockSize)
	case c.SizeBytes/c.LineSize < c.Ways: // no whole set, without overflowing LineSize*Ways
		return fmt.Errorf("cache: size %d is below one set of %d ways of %d-byte lines", c.SizeBytes, c.Ways, c.LineSize)
	}
	return nil
}

// NumSets returns the set count of the geometry (valid once Validate
// accepts it).
func (c Config) NumSets() int { return c.SizeBytes / (c.LineSize * c.Ways) }

// New builds a cache; it panics with cfg.Validate's error.
func New(cfg Config, ctrl modes.Controller) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.NumSets()
	c := &Cache{cfg: cfg, ctrl: ctrl, numSets: numSets, sets: make([]set, numSets)}
	c.trainer, _ = cfg.Codecs[modes.HighCap].(*compress.SC)
	subPerSet := cfg.Ways * cfg.LineSize / SubBlockSize
	n := cfg.Ways * TagFactor
	// One slab each for every set's tags and lines.
	tags := make([]uint64, numSets*n)
	for i := range tags {
		tags[i] = invalidTag
	}
	lines := make([]line, numSets*n)
	for i := range c.sets {
		lo, hi := i*n, (i+1)*n
		c.sets[i] = set{
			tags:     tags[lo:hi:hi],
			lines:    lines[lo:hi:hi],
			freeSub:  subPerSet,
			totalSub: subPerSet,
		}
	}
	return c
}

// NewL1 builds one SM's L1 for a run. The codecs are fresh, so SC state
// is private to the cache; a controller that reports UsesHighCap() ==
// false gets no high-capacity codec, since nothing would read the SC
// value table it trains on every fill and sampled hit; stateless
// codecs measure through memo, which every L1 of the run shares; and
// SC rebuilds its code book in the memo's scratch.
func NewL1(cfg Config, ctrl modes.Controller, memo *SizeMemo) *Cache {
	if hc, ok := ctrl.(interface{ UsesHighCap() bool }); ok && !hc.UsesHighCap() {
		cfg.Codecs[modes.HighCap] = nil
	}
	cfg.Codecs = cfg.FreshCodecs()
	c := New(cfg, ctrl)
	for m, codec := range cfg.Codecs {
		c.sizes[m] = memo.table(codec)
	}
	if c.trainer != nil && memo != nil {
		c.trainer.ShareScratch(&memo.scScratch)
	}
	return c
}

// LineSource renders the bytes of one line on demand. Fill asks for them
// only when it must: to train an SC value table, to measure a line the
// size memo does not hold, or to run the paranoid checks. The returned
// slice need only stay valid until the next call. Every trace.DataSource
// is a LineSource; trace.LineBuffer is one that renders into a reused
// buffer.
type LineSource interface {
	Line(lineAddr uint64) []byte
}

// lineBytes is a LineSource that always returns the same bytes.
type lineBytes []byte

func (b lineBytes) Line(uint64) []byte { return b }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// subBlocksPerLine is the sub-block count of an uncompressed line.
func (c *Cache) subBlocksPerLine() int { return c.cfg.LineSize / SubBlockSize }

// setIndex maps a line address to its set.
func (c *Cache) setIndex(lineAddr uint64) int { return int(lineAddr % uint64(c.numSets)) }

// Access looks up the line containing addr at cycle now. On a hit the
// result carries the data-ready cycle including any decompression penalty.
// On a miss the caller must fetch the line and call Fill. The controller
// observes every access; a returned flush directive is applied before the
// result is returned.
//
//lint:hotpath
func (c *Cache) Access(addr uint64, now uint64) Result {
	lineAddr := addr / uint64(c.cfg.LineSize)
	si := c.setIndex(lineAddr)
	s := &c.sets[si]
	c.stats.Accesses++

	res := Result{}
	if i := s.find(lineAddr); i >= 0 {
		l := &s.lines[i]
		s.lruClock++
		l.lru = s.lruClock
		res.Hit = true
		res.LineMode = l.mode
		if l.mode != modes.None && !c.cfg.CapacityOnly {
			if c.decompBufLookup(lineAddr) {
				c.stats.DecompBufferHits++
			} else {
				res.ExtraLatency = c.decompress(l.mode, now)
				c.stats.CompressedHits++
				c.decompBufInsert(lineAddr)
			}
		}
	}
	if res.Hit {
		c.stats.Hits++
		c.stats.HitsByMode[res.LineMode]++
		res.Ready = now + c.cfg.HitLatency + c.cfg.ExtraHitLatency + res.ExtraLatency
	} else {
		c.stats.Misses++
	}

	dir := c.ctrl.RecordAccess(si, res.Hit, res.LineMode, res.ExtraLatency, now)
	c.applyDirective(dir)
	return res
}

// decompress models the shared decompression unit (Equation 3): the
// request waits for a pipeline slot (one issue per initiation interval),
// then takes the codec's full decompression latency. Returns the extra
// cycles beyond a normal hit.
//
//lint:hotpath
func (c *Cache) decompress(m modes.Mode, now uint64) uint64 {
	codec := c.cfg.Codecs[m]
	if codec == nil {
		return 0
	}
	lat := uint64(codec.DecompLatency())
	c.stats.DecompBusy += lat
	if c.cfg.UnboundedDecompressor {
		return lat
	}
	ii := c.cfg.DecompInitInterval
	if ii == 0 {
		ii = 2
	}
	start := now
	if c.decompFree > now {
		start = c.decompFree
	}
	wait := start - now
	c.decompFree = start + ii
	c.stats.DecompWait += wait
	return wait + lat
}

// decompBufLookup reports whether the line's decompressed copy is still
// buffered.
//
//lint:hotpath
func (c *Cache) decompBufLookup(lineAddr uint64) bool {
	for _, a := range c.decompBuf {
		if a == lineAddr {
			return true
		}
	}
	return false
}

// decompBufInsert records a freshly decompressed line (FIFO replacement).
//
//lint:hotpath
func (c *Cache) decompBufInsert(lineAddr uint64) {
	n := c.cfg.DecompBufferEntries
	if n <= 0 {
		return
	}
	if len(c.decompBuf) < n {
		c.decompBuf = append(c.decompBuf, lineAddr)
		return
	}
	copy(c.decompBuf, c.decompBuf[1:])
	c.decompBuf[len(c.decompBuf)-1] = lineAddr
}

// decompBufDrop invalidates one line's buffered copy (re-fill changes the
// data).
func (c *Cache) decompBufDrop(lineAddr uint64) {
	for i, a := range c.decompBuf {
		if a == lineAddr {
			c.decompBuf = append(c.decompBuf[:i], c.decompBuf[i+1:]...)
			return
		}
	}
}

// Fill installs the line containing addr, compressed according to the
// controller's mode for the set, and returns the mode used. Fill also
// trains the high-capacity codec's value table: the hardware VFT snoops
// the fill path regardless of the selected mode. src supplies the line's
// bytes, which Fill renders only when it needs them (see LineSource).
//
// The cache only ever stores sizes and modes, never encoded bytes, so
// the steady-state fill uses Codec.Measure, or the size memo, and
// allocates nothing; under paranoid mode it runs the full Compress
// instead and verifies the round trip, that Measure agrees with it, and
// that the memo does.
//
//lint:hotpath
func (c *Cache) Fill(addr uint64, src LineSource, now uint64) modes.Mode {
	lineAddr := addr / uint64(c.cfg.LineSize)
	si := c.setIndex(lineAddr)
	s := &c.sets[si]

	var data []byte // rendered on first need
	if c.trainer != nil {
		data = src.Line(lineAddr)
		c.trainer.Train(data)
	}

	mode := c.ctrl.InsertMode(si)
	if !mode.Valid() {
		badControllerMode(mode)
	}
	sub := c.subBlocksPerLine()
	var gen uint64
	if mode != modes.None {
		codec := c.cfg.Codecs[mode]
		if codec == nil {
			mode = modes.None
		} else {
			enc := c.measure(mode, lineAddr, src, data)
			gen = enc.Generation
			if !c.cfg.LatencyOnly {
				sub = (enc.Size + SubBlockSize - 1) / SubBlockSize
			}
			c.stats.UncompressedSize += uint64(c.cfg.LineSize)
			c.stats.CompressedSize += uint64(enc.Size)
			if enc.Raw {
				// Incompressible under this codec: the hardware stores the
				// line verbatim (encoding bits in the tag say "raw"), so
				// hits pay no decompression latency.
				mode = modes.None
			}
		}
	} else {
		c.stats.UncompressedSize += uint64(c.cfg.LineSize)
		c.stats.CompressedSize += uint64(c.cfg.LineSize)
	}

	// If the line is somehow present (racing fills), replace it in place.
	if i := s.find(lineAddr); i >= 0 {
		c.drop(s, i)
	}
	c.decompBufDrop(lineAddr)

	// Make room: need a free tag and sub sub-blocks.
	for !c.hasRoom(s, sub) {
		if !c.evictLRU(s) {
			fillNoRoom()
		}
	}
	i := s.find(invalidTag)
	s.lruClock++
	s.tags[i] = lineAddr
	s.lines[i] = line{valid: true, mode: mode, subBlocks: uint16(sub), gen: uint32(gen), lru: s.lruClock}
	s.freeSub -= sub
	c.validCnt++
	c.stats.Fills++
	c.stats.InsertsByMode[mode]++
	c.stats.SubBlocksByMode[mode] += uint64(sub)
	if invariant.Active() {
		c.checkSet(si)
	}
	return mode
}

// FillBytes is Fill with the line's bytes already rendered.
func (c *Cache) FillBytes(addr uint64, data []byte, now uint64) modes.Mode {
	return c.Fill(addr, lineBytes(data), now)
}

// measure returns mode's codec result for the line: from the size memo
// when the codec is stateless and the line was measured before, else by
// Measure on data (rendered from src here if the caller has not yet).
//
//lint:hotpath
func (c *Cache) measure(mode modes.Mode, lineAddr uint64, src LineSource, data []byte) compress.Encoded {
	codec, sizes := c.cfg.Codecs[mode], c.sizes[mode]
	paranoid := invariant.Active()
	if sizes != nil && !paranoid {
		if e, ok := sizes.get(lineAddr); ok {
			return compress.Encoded{Size: int(e >> 1), Raw: e&1 != 0}
		}
	}
	if data == nil {
		data = src.Line(lineAddr)
	}
	if paranoid {
		enc := codec.Compress(data)
		c.verifyEncoding(codec, enc, data)
		if sizes != nil {
			c.verifyMemo(codec, sizes, lineAddr, enc)
		}
		return enc
	}
	enc := codec.Measure(data)
	if sizes != nil {
		sizes.set(lineAddr, memoEntry(enc))
	}
	return enc
}

// badControllerMode and fillNoRoom keep Fill's panic construction (and
// its fmt boxing) out of the //lint:hotpath escape-analysis range; the
// go:noinline stops the compiler from hauling it back in.
//
//go:noinline
func badControllerMode(mode modes.Mode) {
	//lint:allow panic-audit controller contract violation corrupts every stat; halt the run
	panic(fmt.Sprintf("cache: controller returned invalid mode %d", mode))
}

//go:noinline
func fillNoRoom() {
	//lint:allow panic-audit unreachable by geometry; continuing would loop forever
	panic("cache: cannot make room — geometry bug")
}

// verifyEncoding runs the paranoid-mode fill checks: the compressed size
// must fit in (0, LineSize], the encoding must round-trip back to the
// exact inserted bytes (a codec that silently corrupts data would
// otherwise only skew hit latencies, never fail a run), and Measure must
// report exactly what Compress produced — the steady-state fill path
// trusts Measure alone.
func (c *Cache) verifyEncoding(codec compress.Codec, enc compress.Encoded, data []byte) {
	invariant.Assert(enc.Size > 0 && enc.Size <= c.cfg.LineSize,
		"%s: compressed size %d outside (0, %d]", codec.Name(), enc.Size, c.cfg.LineSize)
	dec, err := codec.Decompress(enc)
	if err != nil {
		invariant.Violationf("%s: fill round trip: %v", codec.Name(), err)
	}
	invariant.Assert(bytes.Equal(dec, data),
		"%s: fill round trip produced different bytes", codec.Name())
	m := codec.Measure(data)
	invariant.Assert(m.Size == enc.Size && m.Raw == enc.Raw && m.Generation == enc.Generation,
		"%s: Measure (size %d, raw %v, gen %d) disagrees with Compress (size %d, raw %v, gen %d)",
		codec.Name(), m.Size, m.Raw, m.Generation, enc.Size, enc.Raw, enc.Generation)
}

// verifyMemo is the paranoid cross-check of the size memo: an entry,
// when present, must equal the full Compress result; an absent one is
// recorded, so the line's next fill is checked against it.
func (c *Cache) verifyMemo(codec compress.Codec, sizes *sizeTable, lineAddr uint64, enc compress.Encoded) {
	want := memoEntry(enc)
	invariant.Assert(enc.Generation == 0,
		"%s: stateless codec reported generation %d", codec.Name(), enc.Generation)
	if e, ok := sizes.get(lineAddr); ok {
		invariant.Assert(e == want,
			"%s: memoised size %d (raw %v) of line %#x disagrees with Compress (size %d, raw %v)",
			codec.Name(), e>>1, e&1 != 0, lineAddr, enc.Size, enc.Raw)
		return
	}
	sizes.set(lineAddr, want)
}

// checkSet verifies one set's occupancy accounting after a structural
// change: allocated sub-blocks of valid lines plus the free count must
// equal the set's capacity, no line may exceed an uncompressed line's
// footprint, and the tag array must mirror the lines (a tag appears
// exactly where its line is valid).
func (c *Cache) checkSet(si int) {
	s := &c.sets[si]
	used := 0
	for i := range s.lines {
		invariant.Assert(s.lines[i].valid == (s.tags[i] != invalidTag),
			"set %d: entry %d valid %v but tag %#x", si, i, s.lines[i].valid, s.tags[i])
		if !s.lines[i].valid {
			continue
		}
		sub := int(s.lines[i].subBlocks)
		invariant.Assert(sub > 0 && sub <= c.subBlocksPerLine(),
			"set %d: line holds %d sub-blocks, line size is %d", si, sub, c.subBlocksPerLine())
		used += sub
	}
	invariant.Assert(used+s.freeSub == s.totalSub,
		"set %d: occupancy %d + free %d != capacity %d", si, used, s.freeSub, s.totalSub)
	invariant.Assert(s.freeSub >= 0,
		"set %d: negative free sub-blocks %d", si, s.freeSub)
}

// hasRoom reports whether the set has a free tag and sub free sub-blocks.
func (c *Cache) hasRoom(s *set, sub int) bool {
	return s.freeSub >= sub && s.find(invalidTag) >= 0
}

// evictLRU removes the least recently used valid line from the set.
func (c *Cache) evictLRU(s *set) bool {
	victim := -1
	oldest := ^uint64(0)
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].lru < oldest {
			oldest = s.lines[i].lru
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	c.drop(s, victim)
	c.stats.Evictions++
	return true
}

// drop invalidates entry i of the set and frees its sub-blocks.
func (c *Cache) drop(s *set, i int) {
	s.freeSub += int(s.lines[i].subBlocks)
	s.lines[i] = line{}
	s.tags[i] = invalidTag
	c.validCnt--
}

// applyDirective handles controller requests: flushing compressed lines
// and rebuilding the high-capacity code book (Section IV-C2). The flush
// only happens when a rebuild actually changed the code book — lines
// encoded under an unchanged book stay decodable.
func (c *Cache) applyDirective(dir modes.Directive) {
	if dir.RebuildHighCap {
		if c.trainer == nil || !c.trainer.Rebuild() {
			return
		}
	}
	if dir.FlushHighCap {
		c.decompBuf = c.decompBuf[:0]
		for si := range c.sets {
			s := &c.sets[si]
			for i := range s.lines {
				if s.lines[i].valid && s.lines[i].mode == modes.HighCap {
					c.drop(s, i)
					c.stats.FlushedLines++
				}
			}
		}
	}
	for _, sm := range dir.FlushMismatch {
		if sm.Set < 0 || sm.Set >= c.numSets {
			continue
		}
		s := &c.sets[sm.Set]
		for i := range s.lines {
			if !s.lines[i].valid || s.lines[i].mode == sm.Mode {
				continue
			}
			if sm.KeepUncompressed && s.lines[i].mode == modes.None {
				continue
			}
			c.drop(s, i)
			c.stats.FlushedLines++
		}
	}
}

// WriteTouch models a write hit under a write-through L1 (the policy the
// paper declines in Section IV-C3): the stored line's contents change, so
// a compressed line can no longer be assumed to fit its old encoding. The
// conservative hardware response modelled here stores the written line
// uncompressed, growing it to full size and evicting LRU lines if the
// set overflows — exactly the "potentially evict other cache lines on
// write hits" cost the paper's write-avoid choice sidesteps. Misses are
// ignored (no write-allocate).
func (c *Cache) WriteTouch(addr uint64, now uint64) {
	lineAddr := addr / uint64(c.cfg.LineSize)
	si := c.setIndex(lineAddr)
	s := &c.sets[si]
	i := s.find(lineAddr)
	if i < 0 || s.lines[i].mode == modes.None {
		return
	}
	l := &s.lines[i]
	grow := c.subBlocksPerLine() - int(l.subBlocks)
	for s.freeSub < grow {
		if !c.evictLRUExcept(s, i) {
			// Nothing else to evict: drop the written line itself
			// (write-no-allocate fallback).
			c.drop(s, i)
			c.stats.Evictions++
			return
		}
	}
	s.freeSub -= grow
	l.mode = modes.None
	l.subBlocks = uint16(c.subBlocksPerLine())
	c.stats.WriteExpansions++
}

// evictLRUExcept evicts the least recently used valid line other than
// the keep index.
func (c *Cache) evictLRUExcept(s *set, keep int) bool {
	victim := -1
	oldest := ^uint64(0)
	for i := range s.lines {
		if i == keep {
			continue
		}
		if s.lines[i].valid && s.lines[i].lru < oldest {
			oldest = s.lines[i].lru
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	c.drop(s, victim)
	c.stats.Evictions++
	return true
}

// TrainsHighCap reports whether the high-capacity codec learns from
// line data, so a caller can skip fetching data TrainHighCap would
// discard.
func (c *Cache) TrainsHighCap() bool { return c.trainer != nil }

// TrainHighCap feeds line data into the high-capacity codec's
// value-frequency table. The cache already trains on every fill; the SM
// additionally samples hit data through this method, because the VFT
// tracks the frequency of *used* values (Section IV-C2), not just newly
// inserted ones — an all-hit period would otherwise starve the table.
func (c *Cache) TrainHighCap(data []byte) {
	if c.trainer != nil {
		c.trainer.Train(data)
	}
}

// ValidLines returns the number of valid lines currently cached — the
// effective-capacity probe of Figure 16 (each valid line represents
// LineSize bytes of uncompressed data regardless of its stored size).
func (c *Cache) ValidLines() int { return c.validCnt }

// EffectiveCapacityRatio returns effective capacity relative to the
// baseline uncompressed cache (valid uncompressed bytes / SizeBytes).
func (c *Cache) EffectiveCapacityRatio() float64 {
	return float64(c.validCnt*c.cfg.LineSize) / float64(c.cfg.SizeBytes)
}

// Flush invalidates every line (kernel boundary, or period boundary for
// code-book rebuilds driven externally).
func (c *Cache) Flush() {
	c.decompBuf = c.decompBuf[:0]
	for si := range c.sets {
		s := &c.sets[si]
		for i := range s.lines {
			if s.lines[i].valid {
				c.drop(s, i)
			}
		}
	}
}

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineView is one valid line as exposed to external verifiers (the
// differential oracle): everything that determines future behaviour
// except the opaque LRU counter, whose effect is captured by SetView's
// ordering instead.
type LineView struct {
	Tag       uint64
	Mode      modes.Mode
	SubBlocks int
	Gen       uint64
}

// SetView is one set's observable state: the valid lines in recency
// order (least recently used first, so Lines[0] is the next victim) and
// the sub-block occupancy accounting.
type SetView struct {
	Lines    []LineView
	FreeSub  int
	TotalSub int
}

// SnapshotSet renders one set for state diffing. It panics on an
// out-of-range index (verification tooling passing a bad set is a
// programming error, not input).
func (c *Cache) SnapshotSet(si int) SetView {
	if si < 0 || si >= c.numSets {
		//lint:allow panic-audit verifier-facing accessor; an out-of-range set index is a caller bug
		panic(fmt.Sprintf("cache: SnapshotSet(%d) with %d sets", si, c.numSets))
	}
	s := &c.sets[si]
	type ranked struct {
		lru  uint64
		view LineView
	}
	var rs []ranked
	for i := range s.lines {
		l := &s.lines[i]
		if !l.valid {
			continue
		}
		rs = append(rs, ranked{lru: l.lru, view: LineView{
			Tag: s.tags[i], Mode: l.mode, SubBlocks: int(l.subBlocks), Gen: uint64(l.gen),
		}})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].lru < rs[j].lru })
	v := SetView{FreeSub: s.freeSub, TotalSub: s.totalSub}
	for _, r := range rs {
		v.Lines = append(v.Lines, r.view)
	}
	return v
}
