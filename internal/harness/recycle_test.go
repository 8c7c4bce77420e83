package harness

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"lattecc/internal/fault"
	"lattecc/internal/invariant"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// registerTBO registers the committed corpus's TBO trace as a workload,
// once per process, so a suite can run it by name. It runs from a serial
// test, with no simulation in flight; the tests after it see TBO too.
func registerTBO(t *testing.T) {
	t.Helper()
	if _, err := workload.ByName("TBO"); err == nil {
		return
	}
	ws, err := tracefile.LoadCorpus(filepath.Join("..", "..", "testdata", "traces"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name() == "TBO" {
			if err := workload.RegisterExternal(w); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("committed trace corpus has no TBO")
}

// TestRecycledRunsMatchGolden drains a fixed mixed sequence of runs on
// two goroutines through one suite and two of its children, and pins
// every run's StateHash. The first item, a Kernel-OPT run whose
// schedule mixes modes (four long simulations on one goroutine), keeps
// a simulation in flight while the other goroutine works through the
// rest, so consecutive runs there may start on the arrays of the run
// before: an SC that was trained and rebuilt, a size memo full of
// another workload's lines, a used L2. The sequence covers a trace
// workload, every high-capacity codec, a capacity-only variant, and a
// 32 KiB L1 between 16 KiB runs. Where testdata/golden_hashes_tiny.txt
// holds a run, its hash here is that file's.
func TestRecycledRunsMatchGolden(t *testing.T) {
	registerTBO(t)
	cfg := tinyConfig()
	s := NewSuite(cfg)
	big := cfg
	big.Cache.SizeBytes = 32 << 10
	long := cfg
	long.MaxInstructions = 1_750_000 // MKS reaches its second kernel, and Kernel-OPT mixes
	suites := map[string]*Suite{"": s, "32K": s.child(big), "MKS": s.child(long)}

	seq := []struct {
		suite string
		req   RunRequest
		want  uint64
	}{
		{"MKS", RunRequest{"MKS", KernelOpt, Variant{}}, 0xd5231f8acef5cd05},
		{"", RunRequest{"TBO", LatteCC, Variant{}}, 0x941bcccd1536c322},
		{"", RunRequest{"SS", StaticSC, Variant{}}, 0x507e9c3e91ffc54d},
		{"", RunRequest{"FW", LatteBDIBPC, Variant{}}, 0xc16d6e809e75f9d9},
		{"32K", RunRequest{"SS", LatteCC, Variant{}}, 0x468b9b3f6e7b5c1b},
		{"", RunRequest{"SS", LatteCC, Variant{}}, 0xc0386798cc6ae410},
		{"", RunRequest{"BO", Uncompressed, Variant{}}, 0xe7a6aed6325e4e0e},
		{"", RunRequest{"FW", StaticSC, Variant{CapacityOnly: true}}, 0xaf8bae52b15658f4},
		{"", RunRequest{"HW", LatteBDIBPC, Variant{}}, 0xc39ee2fd77590642},
		{"", RunRequest{"TBO", StaticSC, Variant{}}, 0x04f78b42244456a4},
		{"", RunRequest{"FW", LatteCC, Variant{}}, 0x35c56ec98ca8698b},
		{"", RunRequest{"HW", StaticSC, Variant{}}, 0x787f13169028c082},
	}
	got := make([]uint64, len(seq))
	forEach(context.Background(), 2, len(seq), func(i int) {
		r := seq[i].req
		res, err := suites[seq[i].suite].Run(r.Workload, r.Policy, r.Variant)
		if err != nil {
			t.Errorf("%s %s/%s: %v", seq[i].suite, r.Workload, r.Policy, err)
			return
		}
		got[i] = res.StateHash()
	})
	for i, e := range seq {
		if got[i] != e.want {
			t.Errorf("%s %s/%s %+v: StateHash %#016x, want %#016x",
				e.suite, e.req.Workload, e.req.Policy, e.req.Variant, got[i], e.want)
		}
	}
}

// spareCount returns how many spare buffer sets s's family holds and
// how many of its leaf simulations are in flight.
func spareCount(s *Suite) (free, inFlight int) {
	s.spares.mu.Lock()
	defer s.spares.mu.Unlock()
	return len(s.spares.free), s.spares.inFlight
}

// TestSparesOnlyWhileBusy: a finished leaf simulation's buffers are kept
// while another leaf simulation of the suite family is in flight, taken
// by the next one, and dropped when the last one returns, so an idle
// suite holds none.
func TestSparesOnlyWhileBusy(t *testing.T) {
	s := NewSuite(tinyConfig())
	c := s.child(tinyConfig())
	s.MustRun("BO", Uncompressed, Variant{})
	if free, n := spareCount(s); free != 0 || n != 0 {
		t.Fatalf("after a lone run: %d spares, %d in flight; want none", free, n)
	}

	held := s.spares.take() // stands for a leaf simulation in flight throughout
	s.MustRun("BO", StaticBDI, Variant{})
	if free, _ := spareCount(s); free != 1 {
		t.Fatalf("after a run beside one in flight: %d spares, want 1", free)
	}
	c.MustRun("FW", StaticBDI, Variant{}) // takes them, then returns them
	if free, n := spareCount(s); free != 1 || n != 1 {
		t.Fatalf("after a child's run: %d spares, %d in flight; want 1, 1", free, n)
	}
	s.spares.put(held)
	if free, n := spareCount(s); free != 0 || n != 0 {
		t.Fatalf("once idle: %d spares, %d in flight; want none", free, n)
	}

	// Two goroutines overlap their runs; once both return, nothing is kept.
	s.Prefetch(RunRequest{"SS", LatteCC, Variant{}}, RunRequest{"HW", LatteCC, Variant{}},
		RunRequest{"NW", StaticSC, Variant{}}, RunRequest{"KM", Uncompressed, Variant{}})
	s.Jobs = 2
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if free, n := spareCount(s); free != 0 || n != 0 {
		t.Fatalf("after RunAll: %d spares, %d in flight; want none", free, n)
	}
}

// TestPanickedRunDoesNotRecycle: a leaf simulation that panics (an
// injected codec fault tripping the paranoid round-trip check) hands no
// buffers on, even with another simulation in flight, and the suite's
// next runs, the retry and one on its buffers, hash as
// testdata/golden_hashes_tiny.txt says.
func TestPanickedRunDoesNotRecycle(t *testing.T) {
	prev := invariant.SetActive(true)
	defer invariant.SetActive(prev)
	defer fault.Reset()

	s := NewSuite(tinyConfig())
	held := s.spares.take() // stands for a leaf simulation in flight throughout
	defer s.spares.put(held)

	fault.Arm("codec.decode", 1)
	_, err := s.Run("BO", StaticBDI, Variant{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from the poisoned run, got %v", err)
	}
	if free, n := spareCount(s); free != 0 || n != 1 {
		t.Fatalf("after the panic: %d spares, %d in flight; want 0, 1", free, n)
	}
	for _, r := range []struct {
		workload string
		want     uint64
	}{
		{"BO", 0xf8dbee4502cf2ef0}, // the retry, on new buffers
		{"FW", 0xb44d8a1329a1ea13}, // on the retry's buffers
	} {
		res, err := s.Run(r.workload, StaticBDI, Variant{})
		if err != nil {
			t.Fatalf("%s: %v", r.workload, err)
		}
		if got := res.StateHash(); got != r.want {
			t.Errorf("%s/%s after the panic: StateHash %#016x, want %#016x", r.workload, StaticBDI, got, r.want)
		}
	}
}
