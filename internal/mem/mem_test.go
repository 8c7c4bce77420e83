package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig()
	return cfg
}

func TestL2HitAfterFill(t *testing.T) {
	s := New(testConfig())
	addr := uint64(0x1000)
	d1 := s.Read(addr, 0)
	if d1 < s.cfg.L2Latency+s.cfg.DRAMLatency {
		t.Fatalf("cold read done at %d, want >= %d", d1, s.cfg.L2Latency+s.cfg.DRAMLatency)
	}
	st := s.Stats()
	if st.L2Misses != 1 || st.DRAMReads != 1 {
		t.Fatalf("stats after cold read: %+v", st)
	}
	d2 := s.Read(addr, 1000)
	if d2 != 1000+s.cfg.L2Latency {
		t.Fatalf("warm read done at %d, want %d", d2, 1000+s.cfg.L2Latency)
	}
	if s.Stats().L2Hits != 1 {
		t.Fatalf("want 1 L2 hit, got %+v", s.Stats())
	}
}

func TestBankContention(t *testing.T) {
	s := New(testConfig())
	// Hammer one bank (same line repeatedly → same bank) at the same cycle.
	addr := uint64(0)
	s.Read(addr, 0) // warm it
	base := s.Read(addr, 10000)
	next := s.Read(addr, 10000)
	if next <= base {
		t.Fatalf("second same-cycle request must queue behind the first: %d vs %d", next, base)
	}
	if next-base != s.cfg.L2Service {
		t.Fatalf("queueing delta = %d, want L2Service %d", next-base, s.cfg.L2Service)
	}
}

func TestDRAMChannelBandwidth(t *testing.T) {
	s := New(testConfig())
	// Distinct lines, same channel: line numbers differing by
	// DRAMChannels*K map to the same channel.
	step := uint64(s.cfg.LineSize) * uint64(s.cfg.DRAMChannels) * uint64(s.cfg.L2Banks)
	var last uint64
	for i := 0; i < 10; i++ {
		done := s.Read(uint64(i)*step*997, 0) // sparse: all L2 misses
		if done > last {
			last = done
		}
	}
	if s.Stats().DRAMReads != 10 {
		t.Fatalf("want 10 DRAM reads, got %+v", s.Stats())
	}
	if last < s.cfg.L2Latency+s.cfg.DRAMLatency {
		t.Fatalf("completion %d below minimum latency", last)
	}
}

func TestL2CapacityEviction(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	lines := cfg.L2SizeBytes / cfg.LineSize
	// Touch 2x the L2 capacity of distinct lines, then re-touch the first:
	// it must have been evicted.
	for i := 0; i < 2*lines; i++ {
		s.Read(uint64(i*cfg.LineSize), 0)
	}
	missesBefore := s.Stats().L2Misses
	s.Read(0, 1<<40)
	if s.Stats().L2Misses != missesBefore+1 {
		t.Fatal("line 0 should have been evicted by capacity pressure")
	}
}

func TestL2AllSetsReachable(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	// Insert exactly L2-capacity distinct lines; with proper bank-local
	// indexing none of them conflict-miss, so re-reading them all hits.
	lines := cfg.L2SizeBytes / cfg.LineSize
	for i := 0; i < lines; i++ {
		s.Read(uint64(i*cfg.LineSize), 0)
	}
	for i := 0; i < lines; i++ {
		s.Read(uint64(i*cfg.LineSize), 1<<30)
	}
	st := s.Stats()
	if st.L2Hits != uint64(lines) {
		t.Fatalf("want %d hits on re-read (full capacity usable), got %d", lines, st.L2Hits)
	}
}

func TestWriteAccountsTraffic(t *testing.T) {
	s := New(testConfig())
	s.Write(0x2000, 0)
	st := s.Stats()
	if st.L2Writes != 1 || st.BytesL1L2 != uint64(s.cfg.LineSize) {
		t.Fatalf("write stats: %+v", st)
	}
	if st.DRAMReads != 1 {
		t.Fatalf("write-allocate must fetch the line: %+v", st)
	}
	if st.DRAMWrites != 0 {
		t.Fatalf("write-back L2 defers dirty data until eviction: %+v", st)
	}
	// A second write to the same line hits in L2.
	s.Write(0x2000, 5000)
	if s.Stats().L2Hits != 1 {
		t.Fatalf("warm write should hit L2: %+v", s.Stats())
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	// Dirty one line, then stream reads through twice the L2 capacity to
	// force its eviction: exactly one write-back must reach DRAM.
	s.Write(0x2000, 0)
	lines := cfg.L2SizeBytes / cfg.LineSize
	for i := 1; i <= 2*lines; i++ {
		s.Read(uint64(0x2000+i*cfg.LineSize), 100)
	}
	if wb := s.Stats().DRAMWrites; wb != 1 {
		t.Fatalf("dirty eviction write-backs = %d, want 1", wb)
	}
	// Clean evictions never write back: re-stream the same reads.
	before := s.Stats().DRAMWrites
	for i := 1; i <= 2*lines; i++ {
		s.Read(uint64(0x2000+i*cfg.LineSize), 200)
	}
	if s.Stats().DRAMWrites != before {
		t.Fatal("clean evictions must not write back")
	}
}

func TestWriteLatencyIsAcceptLatency(t *testing.T) {
	s := New(testConfig())
	done := s.Write(0x9000, 100)
	if done-100 > 4*s.cfg.L2Service {
		t.Fatalf("store accept latency %d too high; stores must not stall like loads", done-100)
	}
}

func TestCompletionMonotonicWithIssueTime(t *testing.T) {
	// For a fixed address, issuing later can never complete earlier.
	f := func(t1, t2 uint32) bool {
		s := New(testConfig())
		a, b := uint64(t1), uint64(t2)
		if a > b {
			a, b = b, a
		}
		d1 := s.Read(0x100, a)
		d2 := s.Read(0x100, b)
		return d2 >= d1 || b >= d1 // either ordered, or second issued after first completed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadLatencyLowerBoundQuick(t *testing.T) {
	f := func(addrSeed uint32, now uint16) bool {
		s := New(testConfig())
		addr := uint64(addrSeed) * 64
		done := s.Read(addr, uint64(now))
		return done >= uint64(now)+s.cfg.L2Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on zero banks")
		}
	}()
	New(Config{LineSize: 128, L2Banks: 0, DRAMChannels: 1, L2SizeBytes: 1 << 20, L2Ways: 8})
}

// TestValidateRefusesUnbuildable: New panics only through Validate,
// which refuses zero ways (once a divide by zero in New), an L2 below
// one set per bank and lines too short for the tag word, and accepts
// exactly one set per bank.
func TestValidateRefusesUnbuildable(t *testing.T) {
	oneSet := DefaultConfig()
	oneSet.L2SizeBytes = oneSet.LineSize * oneSet.L2Ways * oneSet.L2Banks
	if err := oneSet.Validate(); err != nil {
		t.Fatalf("one set per bank: %v", err)
	}
	New(oneSet)

	noWays, small, tinyLine := DefaultConfig(), oneSet, DefaultConfig()
	noWays.L2Ways = 0
	small.L2SizeBytes--
	tinyLine.LineSize = 2
	for _, cfg := range []Config{noWays, small, tinyLine} {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%+v: accepted", cfg)
			continue
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("%+v: New panicked with %v, want Validate's %v", cfg, r, err)
				}
			}()
			New(cfg)
		}()
	}
}

// TestNewAllocationsConstant: New allocates the L2's tags as one array,
// so its allocation count does not grow with the set count.
func TestNewAllocationsConstant(t *testing.T) {
	big := DefaultConfig()
	big.L2SizeBytes *= 4
	for _, cfg := range []Config{DefaultConfig(), big} {
		if n := testing.AllocsPerRun(10, func() { New(cfg) }); n > 4 {
			t.Errorf("New(%d-byte L2) makes %v allocations, want at most 4", cfg.L2SizeBytes, n)
		}
	}
}
