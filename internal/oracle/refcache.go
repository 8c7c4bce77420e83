package oracle

import (
	"fmt"

	"lattecc/internal/cache"
	"lattecc/internal/compress"
	"lattecc/internal/modes"
)

// RefCache is the naive reference model of the compressed L1
// (internal/cache). Per set it keeps the valid lines in one plain slice
// in recency order — index 0 is the least recently used line and the
// next victim — and recounts free space by walking that slice whenever
// it needs it. No LRU counters, no incremental occupancy, no controller
// coupling: insertion modes and directives arrive as explicit arguments
// so the differential driver can feed both models the same decisions.
//
// The model's own SC codec instance must be distinct from the optimized
// cache's: both observe identical training data in identical order, so
// their code books and generations stay in lockstep without sharing
// state.
type RefCache struct {
	cfg      cache.Config
	numSets  int
	tagCap   int // tags per set: Ways × cache.TagFactor
	totalSub int // data sub-blocks per set
	sets     [][]refLine
	stats    cache.Stats
	validCnt int

	decompFree uint64
	decompBuf  []uint64
}

// refLine is one cached line in the reference model.
type refLine struct {
	tag       uint64
	mode      modes.Mode
	subBlocks int
	gen       uint64
}

// NewRefCache builds the reference model for one cache geometry.
func NewRefCache(cfg cache.Config) *RefCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineSize * cfg.Ways)
	return &RefCache{
		cfg:      cfg,
		numSets:  numSets,
		tagCap:   cfg.Ways * cache.TagFactor,
		totalSub: cfg.Ways * cfg.LineSize / cache.SubBlockSize,
		sets:     make([][]refLine, numSets),
	}
}

// Stats returns a copy of the mirrored counters.
func (c *RefCache) Stats() cache.Stats { return c.stats }

// ValidLines recounts the valid lines from scratch (the optimized cache
// keeps a counter; the reference walks every set every time).
func (c *RefCache) ValidLines() int {
	n := 0
	for si := range c.sets {
		n += len(c.sets[si])
	}
	if n != c.validCnt {
		panic(fmt.Sprintf("oracle: refcache internal count drift: %d vs %d", n, c.validCnt))
	}
	return n
}

// fullSub is an uncompressed line's sub-block footprint.
func (c *RefCache) fullSub() int { return c.cfg.LineSize / cache.SubBlockSize }

// usedSub recounts one set's allocated sub-blocks by list walk.
func (c *RefCache) usedSub(si int) int {
	used := 0
	for _, l := range c.sets[si] {
		used += l.subBlocks
	}
	return used
}

// freeSub is the set's free data space, recounted from scratch.
func (c *RefCache) freeSub(si int) int { return c.totalSub - c.usedSub(si) }

// setOf maps an address to its set and line address.
func (c *RefCache) setOf(addr uint64) (si int, lineAddr uint64) {
	lineAddr = addr / uint64(c.cfg.LineSize)
	return int(lineAddr % uint64(c.numSets)), lineAddr
}

// find returns the index of lineAddr in set si, or -1.
func (c *RefCache) find(si int, lineAddr uint64) int {
	for i, l := range c.sets[si] {
		if l.tag == lineAddr {
			return i
		}
	}
	return -1
}

// remove deletes index i from set si preserving recency order.
func (c *RefCache) remove(si, i int) {
	s := c.sets[si]
	c.sets[si] = append(s[:i], s[i+1:]...)
	c.validCnt--
}

// Access mirrors Cache.Access minus the controller call: the driver
// applies the controller's directive afterwards via ApplyDirective.
func (c *RefCache) Access(addr uint64, now uint64) cache.Result {
	si, lineAddr := c.setOf(addr)
	c.stats.Accesses++

	res := cache.Result{}
	if i := c.find(si, lineAddr); i >= 0 {
		l := c.sets[si][i]
		// Move to most-recently-used position (end of the list).
		c.remove(si, i)
		c.sets[si] = append(c.sets[si], l)
		c.validCnt++
		res.Hit = true
		res.LineMode = l.mode
		if l.mode != modes.None && !c.cfg.CapacityOnly {
			if c.bufHas(lineAddr) {
				c.stats.DecompBufferHits++
			} else {
				res.ExtraLatency = c.decompress(l.mode, now)
				c.stats.CompressedHits++
				c.bufAdd(lineAddr)
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
	return res
}

// decompress mirrors the shared decompression unit's initiation-interval
// queue (Equation 3).
func (c *RefCache) decompress(m modes.Mode, now uint64) uint64 {
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
	c.decompFree = start + ii
	c.stats.DecompWait += start - now
	return start - now + lat
}

func (c *RefCache) bufHas(lineAddr uint64) bool {
	for _, a := range c.decompBuf {
		if a == lineAddr {
			return true
		}
	}
	return false
}

func (c *RefCache) bufAdd(lineAddr uint64) {
	n := c.cfg.DecompBufferEntries
	if n <= 0 {
		return
	}
	if len(c.decompBuf) >= n {
		c.decompBuf = c.decompBuf[1:]
	}
	c.decompBuf = append(c.decompBuf, lineAddr)
}

func (c *RefCache) bufDrop(lineAddr uint64) {
	for i, a := range c.decompBuf {
		if a == lineAddr {
			c.decompBuf = append(c.decompBuf[:i], c.decompBuf[i+1:]...)
			return
		}
	}
}

// Fill mirrors Cache.Fill with the controller's insertion mode passed
// explicitly. It returns the mode actually stored (incompressible lines
// degrade to uncompressed).
func (c *RefCache) Fill(addr uint64, data []byte, now uint64, mode modes.Mode) modes.Mode {
	si, lineAddr := c.setOf(addr)

	if sc, ok := c.cfg.Codecs[modes.HighCap].(*compress.SC); ok {
		sc.Train(data)
	}

	sub := c.fullSub()
	var gen uint64
	if mode != modes.None {
		codec := c.cfg.Codecs[mode]
		if codec == nil {
			mode = modes.None
		} else {
			enc := codec.Compress(data)
			gen = enc.Generation
			if c.cfg.LatencyOnly {
				sub = c.fullSub()
			} else {
				sub = (enc.Size + cache.SubBlockSize - 1) / cache.SubBlockSize
			}
			c.stats.UncompressedSize += uint64(c.cfg.LineSize)
			c.stats.CompressedSize += uint64(enc.Size)
			if enc.Raw {
				mode = modes.None
			}
		}
	} else {
		c.stats.UncompressedSize += uint64(c.cfg.LineSize)
		c.stats.CompressedSize += uint64(c.cfg.LineSize)
	}

	if i := c.find(si, lineAddr); i >= 0 {
		c.remove(si, i)
	}
	c.bufDrop(lineAddr)

	// Make room: a free tag and enough free sub-blocks, evicting from
	// the front of the recency list (the LRU end).
	for c.freeSub(si) < sub || len(c.sets[si]) >= c.tagCap {
		if len(c.sets[si]) == 0 {
			panic("oracle: refcache cannot make room in an empty set")
		}
		c.remove(si, 0)
		c.stats.Evictions++
	}

	c.sets[si] = append(c.sets[si], refLine{tag: lineAddr, mode: mode, subBlocks: sub, gen: gen})
	c.validCnt++
	c.stats.Fills++
	c.stats.InsertsByMode[mode]++
	c.stats.SubBlocksByMode[mode] += uint64(sub)
	return mode
}

// ApplyDirective mirrors Cache.applyDirective, operating on this model's
// own SC instance.
func (c *RefCache) ApplyDirective(dir modes.Directive) {
	if dir.RebuildHighCap {
		sc, ok := c.cfg.Codecs[modes.HighCap].(*compress.SC)
		if !ok {
			return
		}
		if !sc.Rebuild() {
			return
		}
	}
	if dir.FlushHighCap {
		c.decompBuf = c.decompBuf[:0]
		for si := range c.sets {
			keep := c.sets[si][:0]
			for _, l := range c.sets[si] {
				if l.mode == modes.HighCap {
					c.validCnt--
					c.stats.FlushedLines++
				} else {
					keep = append(keep, l)
				}
			}
			c.sets[si] = keep
		}
	}
	for _, sm := range dir.FlushMismatch {
		if sm.Set < 0 || sm.Set >= c.numSets {
			continue
		}
		keep := c.sets[sm.Set][:0]
		for _, l := range c.sets[sm.Set] {
			drop := l.mode != sm.Mode
			if sm.KeepUncompressed && l.mode == modes.None {
				drop = false
			}
			if drop {
				c.validCnt--
				c.stats.FlushedLines++
			} else {
				keep = append(keep, l)
			}
		}
		c.sets[sm.Set] = keep
	}
}

// WriteTouch mirrors the write-through expansion path: a write hit on a
// compressed line grows it to full size, evicting other LRU lines, or
// drops the line when the set cannot absorb the growth. Recency is
// deliberately not updated (the optimized cache leaves lru untouched).
func (c *RefCache) WriteTouch(addr uint64, now uint64) {
	si, lineAddr := c.setOf(addr)
	i := c.find(si, lineAddr)
	if i < 0 {
		return
	}
	if c.sets[si][i].mode == modes.None {
		return
	}
	grow := c.fullSub() - c.sets[si][i].subBlocks
	for c.freeSub(si) < grow {
		// Evict the least recently used line other than the touched one.
		victim := 0
		if victim == i {
			victim = 1
		}
		if victim >= len(c.sets[si]) {
			// Nothing else to evict: drop the written line itself.
			c.remove(si, i)
			c.stats.Evictions++
			return
		}
		c.remove(si, victim)
		c.stats.Evictions++
		if victim < i {
			i--
		}
	}
	c.sets[si][i].mode = modes.None
	c.sets[si][i].subBlocks = c.fullSub()
	c.stats.WriteExpansions++
}

// Flush mirrors Cache.Flush (kernel boundary): everything goes, nothing
// is counted as an eviction.
func (c *RefCache) Flush() {
	c.decompBuf = c.decompBuf[:0]
	for si := range c.sets {
		c.validCnt -= len(c.sets[si])
		c.sets[si] = nil
	}
}

// SnapshotSet renders one set in the optimized cache's SetView form so
// the differential driver can compare them directly. The reference list
// is already in LRU-first order.
func (c *RefCache) SnapshotSet(si int) cache.SetView {
	v := cache.SetView{FreeSub: c.freeSub(si), TotalSub: c.totalSub}
	for _, l := range c.sets[si] {
		v.Lines = append(v.Lines, cache.LineView{
			Tag: l.tag, Mode: l.mode, SubBlocks: l.subBlocks, Gen: l.gen,
		})
	}
	return v
}

// NumSets returns the set count.
func (c *RefCache) NumSets() int { return c.numSets }
