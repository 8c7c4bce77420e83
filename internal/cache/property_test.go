package cache

import (
	"math/rand"
	"testing"

	"lattecc/internal/modes"
)

// cyclingController rotates insertion modes and periodically issues
// rebuild/flush directives, so property runs traverse every structural
// path (mixed-mode sets, HighCap flushes, sampling flushes).
type cyclingController struct {
	n    int
	dirN int
}

func (c *cyclingController) Name() string { return "cycling" }

func (c *cyclingController) InsertMode(set int) modes.Mode {
	c.n++
	return modes.Mode(c.n % modes.NumModes)
}

func (c *cyclingController) RecordAccess(set int, hit bool, lineMode modes.Mode, extraLat uint64, now uint64) modes.Directive {
	c.dirN++
	switch {
	case c.dirN%97 == 0:
		return modes.Directive{RebuildHighCap: true, FlushHighCap: true}
	case c.dirN%61 == 0:
		return modes.Directive{FlushMismatch: []modes.SetMode{
			{Set: set, Mode: lineMode, KeepUncompressed: c.dirN%2 == 0},
		}}
	}
	return modes.Directive{}
}

func (c *cyclingController) RecordMissLatency(uint64) {}
func (c *cyclingController) RecordTolerance(float64)  {}

// recountSet recomputes one set's accounting from scratch.
func recountSet(c *Cache, si int) (used, valid int) {
	s := &c.sets[si]
	for i := range s.lines {
		if s.lines[i].valid {
			used += int(s.lines[i].subBlocks)
			valid++
		}
	}
	return used, valid
}

// checkAccounting asserts the eviction/occupancy invariants the cache
// maintains incrementally, against a from-scratch recount.
func checkAccounting(t *testing.T, c *Cache, when string) {
	t.Helper()
	totalValid := 0
	for si := 0; si < c.numSets; si++ {
		s := &c.sets[si]
		used, valid := recountSet(c, si)
		totalValid += valid
		if used+s.freeSub != s.totalSub {
			t.Fatalf("%s: set %d: used %d + free %d != capacity %d", when, si, used, s.freeSub, s.totalSub)
		}
		if s.freeSub < 0 {
			t.Fatalf("%s: set %d: negative free sub-blocks %d", when, si, s.freeSub)
		}
		for i := range s.lines {
			if !s.lines[i].valid {
				continue
			}
			if sb := int(s.lines[i].subBlocks); sb <= 0 || sb > c.subBlocksPerLine() {
				t.Fatalf("%s: set %d line %d: %d sub-blocks outside (0, %d]", when, si, i, sb, c.subBlocksPerLine())
			}
		}
		view := c.SnapshotSet(si)
		if view.FreeSub != s.freeSub || len(view.Lines) != valid {
			t.Fatalf("%s: set %d: snapshot free %d lines %d, recount free %d lines %d",
				when, si, view.FreeSub, len(view.Lines), s.freeSub, valid)
		}
	}
	if totalValid != c.validCnt {
		t.Fatalf("%s: valid-line counter %d, recount %d", when, c.validCnt, totalValid)
	}
	st := c.Stats()
	var fills, hits uint64
	for m := 0; m < modes.NumModes; m++ {
		fills += st.InsertsByMode[m]
		hits += st.HitsByMode[m]
	}
	if fills != st.Fills {
		t.Fatalf("%s: per-mode inserts %d != fills %d", when, fills, st.Fills)
	}
	if hits != st.Hits {
		t.Fatalf("%s: per-mode hits %d != hits %d", when, hits, st.Hits)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("%s: hits %d + misses %d != accesses %d", when, st.Hits, st.Misses, st.Accesses)
	}
	if st.CompressedSize > st.UncompressedSize {
		t.Fatalf("%s: compressed bytes %d exceed uncompressed %d", when, st.CompressedSize, st.UncompressedSize)
	}
}

// TestEvictionAccountingProperty drives seeded random operation
// sequences — fills of varied compressibility, accesses, write-touch
// expansions, flushes — and recounts every accounting structure from
// scratch after each operation.
func TestEvictionAccountingProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.SizeBytes = cfg.LineSize * cfg.Ways * 4 // 4 sets: dense conflicts
		cfg.DecompBufferEntries = 2
		c := New(cfg, &cyclingController{})

		pool := c.NumSets() * cfg.Ways * 4
		var now uint64
		for op := 0; op < 3000; op++ {
			now += uint64(rng.Intn(3))
			addr := uint64(rng.Intn(pool)) * uint64(cfg.LineSize)
			switch r := rng.Intn(100); {
			case r < 40:
				c.Access(addr, now)
			case r < 85:
				var data []byte
				if rng.Intn(2) == 0 {
					data = compressibleLine()
				} else {
					data = randomLine(rng)
				}
				c.FillBytes(addr, data, now)
			case r < 95:
				c.WriteTouch(addr, now)
			case r < 98:
				// Kernel-boundary flush must return every sub-block.
				c.Flush()
			default:
				c.ResetStats()
			}
			if op%7 == 0 {
				checkAccounting(t, c, "mid-run")
			}
		}
		checkAccounting(t, c, "final")

		c.Flush()
		if c.ValidLines() != 0 {
			t.Fatalf("seed %d: %d valid lines survive a full flush", seed, c.ValidLines())
		}
		for si := 0; si < c.NumSets(); si++ {
			if c.sets[si].freeSub != c.sets[si].totalSub {
				t.Fatalf("seed %d: set %d not fully free after flush", seed, si)
			}
		}
	}
}
