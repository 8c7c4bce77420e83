package sim

import (
	"encoding/binary"
	"reflect"
	"testing"

	"lattecc/internal/core"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/trace"
	"lattecc/internal/workload"
)

// testData backs lines with BDI-friendly stride data.
type testData struct{}

func (testData) Line(lineAddr uint64) []byte {
	b := make([]byte, 128)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(lineAddr)<<8|uint32(i))
	}
	return b
}

// loopProgram issues `iters` rounds of one coalesced load over a working
// set of `wsLines` lines followed by `alu` ALU ops.
type loopProgram struct {
	iters, alu, wsLines int
	base                uint64
	i, j                int
	phase               int
}

func (p *loopProgram) Next() (trace.Inst, bool) {
	if p.i >= p.iters {
		return trace.Inst{}, false
	}
	if p.phase == 0 {
		p.phase = 1
		p.j = 0
		line := p.base + uint64(p.i%p.wsLines)
		return trace.Inst{Op: trace.OpLoad, Addrs: []uint64{line * 128}}, true
	}
	p.j++
	if p.j >= p.alu {
		p.phase = 0
		p.i++
	}
	return trace.Inst{Op: trace.OpALU, Lat: 1}, true
}

// testWorkload is a single-kernel workload with configurable parallelism.
type testWorkload struct {
	name    string
	blocks  int
	warps   int
	iters   int
	alu     int
	wsLines int
	spread  uint64 // address spread between warps (lines)
}

func (w testWorkload) Name() string             { return w.name }
func (w testWorkload) Category() trace.Category { return trace.CSens }
func (w testWorkload) Data() trace.DataSource   { return testData{} }
func (w testWorkload) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name:          w.name + "-k0",
		Blocks:        w.blocks,
		WarpsPerBlock: w.warps,
		Program: func(block, warp int) trace.Program {
			base := uint64(block*w.warps+warp) * w.spread
			return &loopProgram{iters: w.iters, alu: w.alu, wsLines: w.wsLines, base: base}
		},
	}}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxInstructions = 5_000_000
	cfg.MaxCycles = 5_000_000
	return cfg
}

func baselineFactory(numSets int) modes.Controller {
	return policy.NewStatic(modes.None, "Uncompressed", 256, 10)
}

func bdiFactory(numSets int) modes.Controller {
	return policy.NewStatic(modes.LowLat, "Static-BDI", 256, 10)
}

func latteFactory(numSets int) modes.Controller {
	return core.New(core.DefaultConfig(numSets))
}

func run(t *testing.T, cfg Config, w trace.Workload, f ControllerFactory) Result {
	t.Helper()
	return New(cfg, w, f).Run()
}

func TestL1HighCapCodecFollowsController(t *testing.T) {
	w := testWorkload{name: "tiny", blocks: 2, warps: 2, iters: 10, alu: 1, wsLines: 4, spread: 64}
	scFactory := func(int) modes.Controller { return policy.NewStatic(modes.HighCap, "Static-SC", 256, 10) }
	for _, c := range []struct {
		name string
		f    ControllerFactory
		want bool
	}{
		{"Uncompressed", baselineFactory, false},
		{"Static-BDI", bdiFactory, false},
		{"Static-SC", scFactory, true},
		{"LATTE-CC (no UsesHighCap)", latteFactory, true},
	} {
		s := New(smallConfig(), w, c.f)
		for _, m := range s.sms {
			if got := m.l1.TrainsHighCap(); got != c.want {
				t.Errorf("%s: SM%d L1 trains the high-capacity codec = %v, want %v", c.name, m.id, got, c.want)
			}
		}
	}
}

func TestRunCompletes(t *testing.T) {
	w := testWorkload{name: "tiny", blocks: 4, warps: 2, iters: 50, alu: 3, wsLines: 8, spread: 64}
	res := run(t, smallConfig(), w, baselineFactory)
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	// 4 blocks * 2 warps * 50 iters * (1 load + 3 alu) = 1600 instructions.
	if res.Instructions != 1600 {
		t.Fatalf("instructions = %d, want 1600", res.Instructions)
	}
	if len(res.Kernels) != 1 || res.Kernels[0].Cycles == 0 {
		t.Fatalf("kernel results: %+v", res.Kernels)
	}
}

func TestDeterminism(t *testing.T) {
	w := testWorkload{name: "det", blocks: 6, warps: 4, iters: 80, alu: 2, wsLines: 64, spread: 16}
	r1 := run(t, smallConfig(), w, latteFactory)
	r2 := run(t, smallConfig(), w, latteFactory)
	r1.ToleranceSeries, r2.ToleranceSeries = nil, nil
	r1.CapacitySeries, r2.CapacitySeries = nil, nil
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("non-deterministic simulation:\n%+v\nvs\n%+v", r1, r2)
	}
}

func TestWarpParallelismHidesMemoryLatency(t *testing.T) {
	// Same per-warp program; 1 warp vs 16 warps per block. With latency
	// hiding, 16 warps must achieve much higher IPC.
	mk := func(warps int) Result {
		w := testWorkload{name: "lat", blocks: 2, warps: warps, iters: 100,
			alu: 4, wsLines: 512, spread: 4096} // streaming: mostly misses
		return run(t, smallConfig(), w, baselineFactory)
	}
	one := mk(1)
	many := mk(16)
	if many.IPC() < 4*one.IPC() {
		t.Fatalf("16 warps should hide latency: IPC %0.3f vs %0.3f", many.IPC(), one.IPC())
	}
}

func TestHitLatencyToleranceDependsOnWarpCount(t *testing.T) {
	// The Figure 1 mechanism: added hit latency hurts a low-parallelism
	// workload much more than a high-parallelism one.
	mk := func(warps int, extra uint64) Result {
		cfg := smallConfig()
		cfg.Cache.ExtraHitLatency = extra
		// Tiny per-warp working set (all hits after warmup), enough
		// iterations that steady state dominates the cold misses.
		w := testWorkload{name: "sweep", blocks: 2, warps: warps, iters: 2000,
			alu: 1, wsLines: 4, spread: 4}
		return run(t, cfg, w, baselineFactory)
	}
	slowdown := func(warps int) float64 {
		base := mk(warps, 0)
		slow := mk(warps, 9)
		return base.IPC() / slow.IPC()
	}
	sd1 := slowdown(1)
	sd24 := slowdown(24)
	if sd1 < 2 {
		t.Fatalf("single warp must suffer from +9 hit latency, slowdown %.2f", sd1)
	}
	if sd24-1 > (sd1-1)/3 {
		t.Fatalf("24 warps should hide most of the hit latency: %.2f vs %.2f", sd24, sd1)
	}
}

func TestCompressionReducesMissesWhenSetOverflows(t *testing.T) {
	// Working set of 2x L1 capacity with highly compressible lines: the
	// compressed cache holds it, the baseline thrashes.
	cfg := smallConfig()
	cfg.NumSMs = 1
	lines := 2 * cfg.Cache.SizeBytes / cfg.Cache.LineSize
	w := testWorkload{name: "cap", blocks: 1, warps: 4, iters: 2000,
		alu: 1, wsLines: lines / 4, spread: uint64(lines / 4)}
	base := run(t, cfg, w, baselineFactory)
	bdi := run(t, cfg, w, bdiFactory)
	if bdi.Cache.Misses >= base.Cache.Misses {
		t.Fatalf("BDI should reduce misses: %d vs baseline %d", bdi.Cache.Misses, base.Cache.Misses)
	}
	if bdi.Cache.Misses > base.Cache.Misses*3/4 {
		t.Fatalf("expected a substantial miss reduction, got %d vs %d", bdi.Cache.Misses, base.Cache.Misses)
	}
}

func TestInstructionBudgetStopsRun(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInstructions = 500
	w := testWorkload{name: "budget", blocks: 8, warps: 8, iters: 10000, alu: 8, wsLines: 4, spread: 4}
	res := run(t, cfg, w, baselineFactory)
	if res.Instructions < 500 || res.Instructions > 600 {
		t.Fatalf("instructions = %d, want ~500 (budget)", res.Instructions)
	}
}

func TestMultiKernelSequencing(t *testing.T) {
	w := multiKernelWorkload{}
	res := run(t, smallConfig(), w, baselineFactory)
	if len(res.Kernels) != 2 {
		t.Fatalf("want 2 kernel results, got %d", len(res.Kernels))
	}
	if res.Kernels[0].Name != "k0" || res.Kernels[1].Name != "k1" {
		t.Fatalf("kernel names: %+v", res.Kernels)
	}
	if res.Kernels[1].Start < res.Kernels[0].Cycles {
		t.Fatal("kernels must execute sequentially")
	}
}

type multiKernelWorkload struct{}

func (multiKernelWorkload) Name() string             { return "mk" }
func (multiKernelWorkload) Category() trace.Category { return trace.CInSens }
func (multiKernelWorkload) Data() trace.DataSource   { return testData{} }
func (multiKernelWorkload) Kernels() []trace.Kernel {
	prog := func(block, warp int) trace.Program {
		return &loopProgram{iters: 20, alu: 2, wsLines: 4, base: uint64(warp) * 8}
	}
	return []trace.Kernel{
		{Name: "k0", Blocks: 2, WarpsPerBlock: 2, Program: prog},
		{Name: "k1", Blocks: 2, WarpsPerBlock: 2, Program: prog},
	}
}

func TestLatteControllerRunsEndToEnd(t *testing.T) {
	cfg := smallConfig()
	cfg.SampleEvery = 256
	w := testWorkload{name: "latte", blocks: 8, warps: 8, iters: 500, alu: 2, wsLines: 96, spread: 96}
	res := run(t, cfg, w, latteFactory)
	if res.Policy != "LATTE-CC" {
		t.Fatalf("policy = %q", res.Policy)
	}
	var eps uint64
	for _, n := range res.ModeEPs {
		eps += n
	}
	if eps == 0 {
		t.Fatal("LATTE-CC should have decided at least one EP")
	}
	if res.ToleranceSeries == nil || res.ToleranceSeries.Len() == 0 {
		t.Fatal("tolerance series must be sampled")
	}
	if res.CapacitySeries == nil || res.CapacitySeries.Len() == 0 {
		t.Fatal("capacity series must be sampled")
	}
}

func TestDivergentLoadConsumesLSUBandwidth(t *testing.T) {
	// A fully divergent load (32 lines) must take far longer than a
	// coalesced one even when all accesses hit.
	mk := func(divergent bool) Result {
		cfg := smallConfig()
		cfg.NumSMs = 1
		w := divergedWorkload{divergent: divergent}
		return run(t, cfg, w, baselineFactory)
	}
	co := mk(false)
	div := mk(true)
	if div.Cycles < 5*co.Cycles/2 {
		t.Fatalf("divergent loads should serialize through the LSU: %d vs %d cycles", div.Cycles, co.Cycles)
	}
	if div.LoadTxns <= co.LoadTxns {
		t.Fatal("divergent run must produce more transactions")
	}
}

type divergedWorkload struct{ divergent bool }

func (d divergedWorkload) Name() string             { return "div" }
func (d divergedWorkload) Category() trace.Category { return trace.CSens }
func (d divergedWorkload) Data() trace.DataSource   { return testData{} }
func (d divergedWorkload) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name: "k", Blocks: 1, WarpsPerBlock: 1,
		Program: func(block, warp int) trace.Program {
			i := 0
			return trace.FuncProgram(func() (trace.Inst, bool) {
				if i >= 3000 {
					return trace.Inst{}, false
				}
				i++
				if d.divergent {
					addrs := make([]uint64, 32)
					for j := range addrs {
						addrs[j] = uint64(j%16) * 128 // 16-line hot set, divergent
					}
					return trace.Inst{Op: trace.OpLoad, Addrs: addrs}, true
				}
				return trace.Inst{Op: trace.OpLoad, Addrs: []uint64{uint64(i%16) * 128}}, true
			})
		},
	}}
}

func TestStoresDoNotBlockWarps(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSMs = 1
	res := run(t, cfg, storeWorkload{}, baselineFactory)
	// 200 stores + 200 ALU from one warp: with non-blocking stores this
	// finishes in roughly 400-500 cycles, nowhere near 200 * DRAM latency.
	if res.Cycles > 5000 {
		t.Fatalf("stores appear to block: %d cycles", res.Cycles)
	}
	if res.StoreTxns != 200 {
		t.Fatalf("store txns = %d, want 200", res.StoreTxns)
	}
}

type storeWorkload struct{}

func (storeWorkload) Name() string             { return "st" }
func (storeWorkload) Category() trace.Category { return trace.CInSens }
func (storeWorkload) Data() trace.DataSource   { return testData{} }
func (storeWorkload) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name: "k", Blocks: 1, WarpsPerBlock: 1,
		Program: func(block, warp int) trace.Program {
			i := 0
			return trace.FuncProgram(func() (trace.Inst, bool) {
				if i >= 400 {
					return trace.Inst{}, false
				}
				i++
				if i%2 == 0 {
					return trace.Inst{Op: trace.OpStore, Addrs: []uint64{uint64(i) * 128}}, true
				}
				return trace.Inst{Op: trace.OpALU, Lat: 1}, true
			})
		},
	}}
}

func TestOccupancyLimits(t *testing.T) {
	// 100 blocks of 8 warps on 2 SMs with 8-block/48-warp limits: at most
	// 6 blocks fit per SM at a time (48/8); the run must still complete.
	w := testWorkload{name: "occ", blocks: 100, warps: 8, iters: 10, alu: 2, wsLines: 4, spread: 8}
	res := run(t, smallConfig(), w, baselineFactory)
	want := uint64(100 * 8 * 10 * 3) // iters * (1 load + 2 ALU)
	if res.Instructions != want {
		t.Fatalf("instructions = %d, want %d (all blocks must run)", res.Instructions, want)
	}
}

func TestConfigValidatePanics(t *testing.T) {
	cfg := smallConfig()
	cfg.ToleranceWindow = 0
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(cfg, testWorkload{name: "x", blocks: 1, warps: 1, iters: 1, alu: 1, wsLines: 1, spread: 1}, baselineFactory)
}

func TestRoundRobinScheduler(t *testing.T) {
	// RR must still complete work correctly, and with all warps ready it
	// switches every issue (run length 1), unlike GTO's greedy runs.
	mk := func(kind SchedulerKind) Result {
		cfg := smallConfig()
		cfg.Scheduler = kind
		w := testWorkload{name: "rr", blocks: 2, warps: 8, iters: 300, alu: 4, wsLines: 4, spread: 4}
		return run(t, cfg, w, baselineFactory)
	}
	gto := mk(SchedGTO)
	rr := mk(SchedRR)
	if gto.Instructions != rr.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", gto.Instructions, rr.Instructions)
	}
	if rr.Cycles == 0 || gto.Cycles == 0 {
		t.Fatal("empty runs")
	}
	// Both schedulers must be deterministic.
	rr2 := mk(SchedRR)
	if rr.Cycles != rr2.Cycles {
		t.Fatal("RR scheduling not deterministic")
	}
}

type barrierWorkload struct{ withBarrier bool }

func (b barrierWorkload) Name() string             { return "bar" }
func (b barrierWorkload) Category() trace.Category { return trace.CInSens }
func (b barrierWorkload) Data() trace.DataSource   { return testData{} }
func (b barrierWorkload) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name: "k", Blocks: 1, WarpsPerBlock: 2,
		Program: func(block, warp int) trace.Program {
			var insts []trace.Inst
			// Warp 0 is slow (long ALU chain), warp 1 is fast.
			n := 10
			if warp == 0 {
				n = 500
			}
			for i := 0; i < n; i++ {
				insts = append(insts, trace.Inst{Op: trace.OpALU, Lat: 1})
			}
			if b.withBarrier {
				insts = append(insts, trace.Inst{Op: trace.OpBarrier})
			}
			// Post-barrier work.
			for i := 0; i < 50; i++ {
				insts = append(insts, trace.Inst{Op: trace.OpALU, Lat: 1})
			}
			return trace.NewSliceProgram(insts)
		},
	}}
}

func TestBarrierSynchronizesBlock(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSMs = 1
	with := run(t, cfg, barrierWorkload{withBarrier: true}, baselineFactory)
	without := run(t, cfg, barrierWorkload{withBarrier: false}, baselineFactory)
	// With the barrier, the fast warp's tail work cannot overlap the slow
	// warp's long chain, so the run is longer.
	if with.Cycles <= without.Cycles {
		t.Fatalf("barrier run %d cycles, free run %d — barrier must serialize",
			with.Cycles, without.Cycles)
	}
	if with.Instructions != without.Instructions+2 {
		t.Fatalf("instruction counts: %d vs %d (+2 barriers)", with.Instructions, without.Instructions)
	}
}

func TestBarrierWithRetiredSibling(t *testing.T) {
	// One warp exits before the barrier; the other must not deadlock.
	w := &divergentExitWorkload{}
	res := run(t, smallConfig(), w, baselineFactory)
	if res.Cycles == 0 {
		t.Fatal("deadlock")
	}
}

type divergentExitWorkload struct{}

func (divergentExitWorkload) Name() string             { return "dx" }
func (divergentExitWorkload) Category() trace.Category { return trace.CInSens }
func (divergentExitWorkload) Data() trace.DataSource   { return testData{} }
func (divergentExitWorkload) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name: "k", Blocks: 1, WarpsPerBlock: 2,
		Program: func(block, warp int) trace.Program {
			if warp == 0 {
				// Exits without reaching the barrier.
				return trace.NewSliceProgram([]trace.Inst{{Op: trace.OpALU, Lat: 1}})
			}
			return trace.NewSliceProgram([]trace.Inst{
				{Op: trace.OpALU, Lat: 100},
				{Op: trace.OpBarrier},
				{Op: trace.OpALU, Lat: 1},
			})
		},
	}}
}

func TestTinyStructuralResources(t *testing.T) {
	// MSHRs=1 and L1Ports=1 exercise every structural-stall path; the
	// run must still complete with the right instruction count.
	cfg := smallConfig()
	cfg.MSHRs = 1
	cfg.L1Ports = 1
	w := testWorkload{name: "tiny-res", blocks: 4, warps: 8, iters: 150, alu: 1, wsLines: 64, spread: 64}
	res := run(t, cfg, w, baselineFactory)
	want := uint64(4 * 8 * 150 * 2)
	if res.Instructions != want {
		t.Fatalf("instructions = %d, want %d", res.Instructions, want)
	}
	if res.MSHRStallCycles == 0 {
		t.Fatal("a single MSHR must cause structural stalls on this workload")
	}
	// Generous config must be faster.
	fast := run(t, smallConfig(), w, baselineFactory)
	if fast.Cycles >= res.Cycles {
		t.Fatalf("more MSHRs/ports must help: %d vs %d cycles", fast.Cycles, res.Cycles)
	}
}

func TestToleranceProbeRange(t *testing.T) {
	// The tolerance estimate must stay within [0, ToleranceCap] and be
	// higher for a many-warp compute-dense workload than a serial one.
	probe := func(warps, alu int) float64 {
		cfg := smallConfig()
		cfg.NumSMs = 1
		cfg.SampleEvery = 64
		w := testWorkload{name: "tol", blocks: 1, warps: warps, iters: 800, alu: alu, wsLines: 4, spread: 4}
		res := run(t, cfg, w, baselineFactory)
		pts := res.ToleranceSeries.Points()
		if len(pts) == 0 {
			t.Fatal("no tolerance samples")
		}
		var sum, max float64
		for _, p := range pts {
			if p.Value < 0 {
				t.Fatalf("negative tolerance %v", p.Value)
			}
			if p.Value > max {
				max = p.Value
			}
			sum += p.Value
		}
		if max > cfg.ToleranceCap {
			t.Fatalf("tolerance %v exceeds cap %v", max, cfg.ToleranceCap)
		}
		return sum / float64(len(pts))
	}
	serial := probe(1, 1)
	parallel := probe(24, 6)
	if parallel <= serial {
		t.Fatalf("24 busy warps must show more tolerance than 1: %.2f vs %.2f", parallel, serial)
	}
}

func TestWriteThroughConfigRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteThroughL1 = true
	res := run(t, cfg, storeWorkload{}, baselineFactory)
	if res.StoreTxns == 0 {
		t.Fatal("stores must flow under write-through too")
	}
}

// BenchmarkTable2Round runs one round of the table2-sim benchmark
// workload: SS and FW under Uncompressed and LATTE-CC on the Table II
// machine. PERF.md's per-layer attribution profiles it.
func BenchmarkTable2Round(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"SS", "FW"} {
			for _, f := range []ControllerFactory{baselineFactory, latteFactory} {
				w, err := workload.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				New(DefaultConfig(), w, f).Run()
			}
		}
	}
}
