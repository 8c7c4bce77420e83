package harness

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/workload"
)

// quickConfig shrinks the GPU so harness tests stay fast.
func quickConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	return cfg
}

// raceScaled shrinks a test's instruction budget when the race detector
// is compiled in. These tests check plumbing and determinism, not
// simulation fidelity, so a quarter-size run keeps the package inside
// the per-package test timeout on small machines.
func raceScaled(n uint64) uint64 {
	if raceEnabled {
		return n / 4
	}
	return n
}

func TestSuiteCachesRuns(t *testing.T) {
	s := NewSuite(quickConfig())
	r1, err := s.Run("BO", Uncompressed, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.results) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(s.results))
	}
	r2, _ := s.Run("BO", Uncompressed, Variant{})
	if len(s.results) != 1 {
		t.Fatal("second identical run must hit the cache")
	}
	if r1.Cycles != r2.Cycles {
		t.Fatal("cached result differs")
	}
	// A different variant is a different run.
	s.MustRun("BO", Uncompressed, Variant{ExtraHitLatency: 5})
	if len(s.results) != 2 {
		t.Fatal("variant must be part of the cache key")
	}
}

func TestUnknownWorkloadAndPolicy(t *testing.T) {
	s := NewSuite(quickConfig())
	if _, err := s.Run("NOPE", Uncompressed, Variant{}); err == nil {
		t.Fatal("unknown workload must error")
	}
	if _, err := s.Run("BO", Policy("bogus"), Variant{}); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// TestCheckPolicyGuardsDedicatedSets: on an L1 with fewer sets than
// core's 12 dedicated sets, exactly the adaptive policies fail
// CheckPolicy, and running one is that error rather than a panic.
func TestCheckPolicyGuardsDedicatedSets(t *testing.T) {
	cfg := quickConfig()
	cfg.Cache.SizeBytes = 1024 // 2 sets
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	adaptive := map[Policy]bool{LatteCC: true, LatteBDIBPC: true, AdaptiveHits: true, AdaptiveCMP: true}
	for _, p := range Policies() {
		if err := CheckPolicy(cfg, p); (err != nil) != adaptive[p] {
			t.Errorf("%s: CheckPolicy = %v", p, err)
		}
		if err := CheckPolicy(quickConfig(), p); err != nil {
			t.Errorf("%s on the default L1: %v", p, err)
		}
	}
	_, err := NewSuite(cfg).Run("BO", LatteCC, Variant{})
	var pe *PanicError
	if err == nil || errors.As(err, &pe) {
		t.Errorf("LATTE-CC on 2 sets: err %v, want CheckPolicy's error", err)
	}
}

func TestSpeedupBaselineIsOne(t *testing.T) {
	s := NewSuite(quickConfig())
	spd, err := s.Speedup("BO", Uncompressed, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if spd != 1 {
		t.Fatalf("baseline self-speedup = %v", spd)
	}
}

func TestMissReductionSign(t *testing.T) {
	// FW's occupancy is tuned for the full 15-SM machine; the quick
	// config would overload each SM and change the story.
	s := NewSuite(sim.DefaultConfig())
	// FW is the BDI showcase: Static-BDI must cut misses substantially.
	mr, err := s.MissReduction("FW", StaticBDI)
	if err != nil {
		t.Fatal(err)
	}
	if mr < 0.2 {
		t.Fatalf("FW BDI miss reduction = %v, want >= 0.2", mr)
	}
}

func TestKernelOptPicksBestStaticPerKernel(t *testing.T) {
	s := NewSuite(sim.DefaultConfig())
	sched, err := s.kernelOptSchedule("FW", Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 1 {
		t.Fatalf("FW has 1 kernel, schedule %v", sched)
	}
	// FW's stride data is BDI territory; the oracle must pick LowLat.
	if sched[0] != modes.LowLat {
		t.Fatalf("FW oracle mode = %v, want low-latency", sched[0])
	}
	// A one-mode schedule is that static policy: the Kernel-OPT run is
	// Static-BDI's, relabelled.
	ko := s.MustRun("FW", KernelOpt, Variant{})
	bdi := s.MustRun("FW", StaticBDI, Variant{})
	ko.Policy = bdi.Policy
	if ko.StateHash() != bdi.StateHash() {
		t.Fatalf("Kernel-OPT (%d cycles, %#x) should be Static-BDI (%d, %#x)", ko.Cycles, ko.StateHash(), bdi.Cycles, bdi.StateHash())
	}
}

func TestRunWorkloadCustom(t *testing.T) {
	w := &workload.Spec{
		WName: "custom", Cat: 0,
		Regions: []workload.Region{{Start: 0, Lines: 512, Style: workload.StyleStrideInt, Seed: 1}},
		KernelSeq: []workload.KernelSpec{{
			Name: "k", Blocks: 4, WarpsPerBlock: 4,
			Phases: []workload.Phase{{Kind: workload.PhaseReuse, Region: 0, Iters: 200, ALU: 1, WSLines: 8}},
		}},
	}
	res, err := RunWorkload(quickConfig(), w, LatteCC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != string(LatteCC) || res.Instructions == 0 {
		t.Fatalf("bad custom run: %+v", res)
	}
	// Kernel-OPT path over a custom workload.
	ko, err := RunWorkload(quickConfig(), w, KernelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if ko.Cycles == 0 {
		t.Fatal("empty Kernel-OPT run")
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"tab1", "fig1", "fig2", "fig11", "fig13", "fig15", "fig17", "fig18", "sens48k"} {
		if !seen[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := ExperimentByID("fig11"); !ok {
		t.Fatal("ExperimentByID must find fig11")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("ExperimentByID must reject unknown ids")
	}
}

// runExperiment renders the experiment with the given id on s.
func runExperiment(s *Suite, id string) (string, error) {
	e, ok := ExperimentByID(id)
	if !ok {
		return "", fmt.Errorf("no experiment %q", id)
	}
	return e.Run(s)
}

func TestOfflineExperimentsRender(t *testing.T) {
	// tab1/tab2/tab3/fig2 need no (or almost no) simulation; they must
	// render non-empty tables with a row per workload / codec.
	s := NewSuite(quickConfig())
	out, err := runExperiment(s, "tab1")
	if err != nil {
		t.Fatalf("tab1: %v", err)
	}
	for _, name := range []string{"BDI", "FPC", "CPACK-Z", "BPC", "SC"} {
		if !strings.Contains(out, name) {
			t.Fatalf("tab1 missing %s:\n%s", name, out)
		}
	}
	out, err = runExperiment(s, "fig2")
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	for _, w := range Workloads() {
		if !strings.Contains(out, w) {
			t.Fatalf("fig2 missing %s", w)
		}
	}
	if out, err = runExperiment(s, "tab2"); err != nil || !strings.Contains(out, "GTO") {
		t.Fatalf("tab2 must state the scheduler (err %v)", err)
	}
	if out, err = runExperiment(s, "tab3"); err != nil || !strings.Contains(out, "C-Sens") {
		t.Fatalf("tab3 must show categories (err %v)", err)
	}
}

func TestFig2ShowsAffinityContrast(t *testing.T) {
	// The Figure 2 data must separate the suites' affinities: SS (dict
	// floats) compresses far better under SC than BDI; FW (stride ints)
	// the other way.
	lines := map[string][]string{}
	fig2, err := runExperiment(NewSuite(quickConfig()), "fig2")
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	for _, l := range strings.Split(fig2, "\n") {
		f := strings.Fields(l)
		if len(f) >= 6 {
			lines[f[0]] = f
		}
	}
	parse := func(w string, col int) float64 {
		v, err := strconv.ParseFloat(lines[w][col], 64)
		if err != nil {
			return 0
		}
		return v
	}
	ssBDI, ssSC := parse("SS", 1), parse("SS", 5)
	fwBDI, fwSC := parse("FW", 1), parse("FW", 5)
	if ssSC < 1.5*ssBDI {
		t.Fatalf("SS must favour SC: BDI %.2f SC %.2f", ssBDI, ssSC)
	}
	if fwBDI < 1.2*fwSC {
		t.Fatalf("FW must favour BDI: BDI %.2f SC %.2f", fwBDI, fwSC)
	}
}

func TestWorkloadNameHelpers(t *testing.T) {
	all := Workloads()
	if len(all) != len(CSensNames())+len(CInSensNames()) {
		t.Fatal("category split must partition the suite")
	}
	if _, err := Category("SS"); err != nil {
		t.Fatal(err)
	}
	if _, err := Category("NOPE"); err == nil {
		t.Fatal("unknown workload category must error")
	}
}

func TestCacheSensitivityCriterion(t *testing.T) {
	// Table III's classification rule: a workload is C-Sens iff a 4x L1
	// gives >20% speedup. Validate a representative sample of each class
	// on the full Table II machine (the criterion is defined there).
	if testing.Short() {
		t.Skip("full-machine classification check")
	}
	if raceEnabled {
		t.Skip("pure fidelity check, no concurrency; minutes of race overhead for nothing")
	}
	cfg := sim.DefaultConfig()
	cfg4 := cfg
	cfg4.Cache.SizeBytes *= 4
	s, s4 := NewSuite(cfg), NewSuite(cfg4)
	check := func(name string, wantSens bool) {
		base := s.MustRun(name, Uncompressed, Variant{})
		big := s4.MustRun(name, Uncompressed, Variant{})
		spd := float64(base.Cycles) / float64(big.Cycles)
		if wantSens && spd <= 1.2 {
			t.Errorf("%s classified C-Sens but 4x-cache speedup is %.3f", name, spd)
		}
		if !wantSens && spd > 1.2 {
			t.Errorf("%s classified C-InSens but 4x-cache speedup is %.3f", name, spd)
		}
	}
	for _, n := range []string{"SS", "FW", "BC", "PRK"} {
		check(n, true)
	}
	for _, n := range []string{"BO", "NW", "BFS", "HW"} {
		check(n, false)
	}
}

func TestHeadlineOrderingRegression(t *testing.T) {
	// The paper's central result, pinned as a regression test: over a
	// representative C-Sens subset, LATTE-CC's geomean speedup beats both
	// static schemes, and Static-SC trails Static-BDI (Figure 11). The
	// subset pairs SC-affine (SS, KM, MM) with BDI-affine (FW, CLR)
	// workloads so neither static can win on class affinity alone.
	if testing.Short() {
		t.Skip("full-machine regression check")
	}
	if raceEnabled {
		t.Skip("pure fidelity check, no concurrency; minutes of race overhead for nothing")
	}
	s := NewSuite(sim.DefaultConfig())
	subset := []string{"SS", "KM", "MM", "FW", "CLR"}
	geomean := func(p Policy) float64 {
		prod := 1.0
		for _, name := range subset {
			spd, err := s.Speedup(name, p, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			prod *= spd
		}
		return math.Pow(prod, 1/float64(len(subset)))
	}
	bdi := geomean(StaticBDI)
	sc := geomean(StaticSC)
	latte := geomean(LatteCC)
	t.Logf("geomeans: Static-BDI %.3f, Static-SC %.3f, LATTE-CC %.3f", bdi, sc, latte)
	if latte <= bdi || latte <= sc {
		t.Fatalf("LATTE-CC (%.3f) must beat Static-BDI (%.3f) and Static-SC (%.3f)", latte, bdi, sc)
	}
	if latte < 1.1 {
		t.Fatalf("LATTE-CC geomean %.3f below the +10%% floor", latte)
	}
}

func TestSimBackedExperimentsSmoke(t *testing.T) {
	// Render the cheaper sim-backed experiments end-to-end on a tiny
	// machine: they must produce non-empty output without panicking.
	// (fig11/fig13/etc. run the full matrix and are exercised by the CLI
	// and benches instead.)
	if testing.Short() {
		t.Skip("multi-simulation smoke test")
	}
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(400_000) // keep each run tiny
	s := NewSuite(cfg)
	for _, id := range []string{"fig5", "fig16"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 40 {
			t.Fatalf("%s output suspiciously short: %q", id, out)
		}
	}
}

func TestEveryExperimentRendersOnTinyMachine(t *testing.T) {
	// Run every registered experiment end-to-end on a 2-SM machine with a
	// hard instruction cap: each must produce plausible output without
	// panicking. Numbers are meaningless at this scale — the full-machine
	// results live in experiments_output.txt — but every code path runs.
	// An experiment with Runs must declare every run it renders from:
	// once they are prefetched, rendering simulates nothing more on the
	// suite.
	if testing.Short() {
		t.Skip("runs every experiment (minutes)")
	}
	cfg := quickConfig()
	cfg.MaxInstructions = raceScaled(120_000)
	s := NewSuite(cfg)
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if e.Runs != nil {
				s.Prefetch(e.Runs()...)
				if err := s.RunAll(); err != nil {
					t.Fatalf("%s runs: %v", e.ID, err)
				}
			}
			sims := s.Simulations()
			out, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if e.Runs != nil && s.Simulations() != sims {
				t.Fatalf("%s rendered from %d runs its Runs does not list", e.ID, s.Simulations()-sims)
			}
			if len(out) < 40 {
				t.Fatalf("%s output suspiciously short: %q", e.ID, out)
			}
			if e.Table != nil {
				tab, err := e.Table(s)
				if err != nil {
					t.Fatalf("%s table: %v", e.ID, err)
				}
				if len(tab.Rows()) == 0 {
					t.Fatalf("%s table has no rows", e.ID)
				}
				if csv := tab.CSV(); !strings.Contains(csv, ",") {
					t.Fatalf("%s CSV malformed: %q", e.ID, csv)
				}
			}
		})
	}
}

// tinyConfig is the CI golden-gate machine: 2 SMs, 120k-instruction cap.
func tinyConfig() sim.Config { return sim.ScaledConfig(false, true) }

func TestExperimentsReturnErrorsOnFailedRuns(t *testing.T) {
	// A config that fails sim.Config.Validate makes every simulation
	// fail. Every simulation-backed experiment must report that as an
	// error from both Run and Table — Experiment.Run promises errors,
	// never a panic. The offline tables never simulate.
	offline := map[string]bool{"tab1": true, "fig2": true, "tab2": true, "tab3": true}
	cfg := tinyConfig()
	cfg.MSHRs = 0
	s := NewSuite(cfg)
	for _, e := range Experiments() {
		if offline[e.ID] {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", e.ID, r)
				}
			}()
			if _, err := e.Run(s); err == nil {
				t.Errorf("%s: Run succeeded on an invalid config", e.ID)
			}
			if e.Table != nil {
				if _, err := e.Table(s); err == nil {
					t.Errorf("%s: Table succeeded on an invalid config", e.ID)
				}
			}
		})
	}
}

func TestRunWorkloadMatchesSuiteKernelOpt(t *testing.T) {
	// RunWorkload and Suite.Run build the Kernel-OPT schedule through
	// the same pick; on the multi-kernel MKS, where the per-kernel
	// choice matters, both paths must land on the same state.
	cfg := tinyConfig()
	w, err := workload.ByName("MKS")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunWorkload(cfg, w, KernelOpt)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewSuite(cfg).Run("MKS", KernelOpt, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.StateHash() != cached.StateHash() {
		t.Fatalf("RunWorkload StateHash %#x != Suite.Run %#x", direct.StateHash(), cached.StateHash())
	}
}
