package oracle

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"lattecc/internal/cache"
	"lattecc/internal/compress"
	"lattecc/internal/core"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/sim"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// script holds pre-generated controller decisions. The optimized cache
// consumes them through a scriptedController (one InsertMode per Fill,
// one RecordAccess per Access); the differential driver feeds the same
// entries to the reference model explicitly. Independent cursors keep the
// two in lockstep without sharing mutable state.
type script struct {
	insertModes []modes.Mode
	directives  []modes.Directive
}

// scriptedController replays a script through the modes.Controller
// interface for the optimized cache.
type scriptedController struct {
	s       *script
	modeIdx int
	dirIdx  int
}

func (c *scriptedController) Name() string { return "oracle-script" }

func (c *scriptedController) InsertMode(set int) modes.Mode {
	m := c.s.insertModes[c.modeIdx]
	c.modeIdx++
	return m
}

func (c *scriptedController) RecordAccess(set int, hit bool, lineMode modes.Mode, extraLat uint64, now uint64) modes.Directive {
	d := c.s.directives[c.dirIdx]
	c.dirIdx++
	return d
}

func (c *scriptedController) RecordMissLatency(lat uint64) {}
func (c *scriptedController) RecordTolerance(tol float64)  {}

// DiffCodecs runs every codec against its bit-at-a-time reference decoder
// on n generated lines, checking that (a) the optimized round trip
// reproduces the input, (b) the reference decoder agrees on the encoded
// bytes, and (c) sizes stay in (0, LineSize]. The SC instance is trained
// progressively and rebuilt periodically so code-book generations beyond
// the first are covered.
func DiffCodecs(seed int64, n int) *Divergence {
	rng := rand.New(rand.NewSource(seed))
	sc := compress.NewSC()
	data := func(ref func([]byte) ([]byte, error)) func(compress.Encoded) ([]byte, error) {
		return func(enc compress.Encoded) ([]byte, error) { return ref(enc.Data) }
	}
	codecs := []struct {
		codec compress.Codec
		ref   func(compress.Encoded) ([]byte, error)
	}{
		{compress.NewBDI(), data(RefDecodeBDI)},
		{compress.NewFPC(), data(RefDecodeFPC)},
		{compress.NewCPACK(), data(RefDecodeCPACK)},
		{compress.NewBPC(), data(RefDecodeBPC)},
		{sc, func(enc compress.Encoded) ([]byte, error) {
			if enc.Raw { // a raw SC encoding is the verbatim line
				return enc.Data, nil
			}
			return RefDecodeSC(enc.Data, sc.CodeBook())
		}},
	}

	for step := 0; step < n; step++ {
		line := GenLine(rng)
		sc.Train(line)
		if step%37 == 36 {
			sc.Rebuild()
		}
		for _, c := range codecs {
			name := "codec:" + c.codec.Name()
			enc := c.codec.Compress(line)
			if enc.Size <= 0 || enc.Size > compress.LineSize {
				return diverge(name, seed, step, "compressed size %d outside (0, %d]", enc.Size, compress.LineSize)
			}
			if c.codec == sc && enc.Generation != sc.Generation() {
				return diverge(name, seed, step, "encoding tagged generation %d, codec at %d", enc.Generation, sc.Generation())
			}
			dec, err := c.codec.Decompress(enc)
			if err != nil {
				return diverge(name, seed, step, "optimized round trip failed: %v", err)
			}
			if !bytes.Equal(dec, line) {
				return diverge(name, seed, step, "optimized round trip changed bytes at offset %d", firstDiff(dec, line))
			}
			ref, err := c.ref(enc)
			if err != nil {
				return diverge(name, seed, step, "reference decoder rejected encoding: %v", err)
			}
			if !bytes.Equal(ref, line) {
				return diverge(name, seed, step, "reference decode disagrees at offset %d", firstDiff(ref, line))
			}
		}
	}
	return nil
}

// firstDiff returns the first differing byte offset (or -1).
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// genDirective draws one controller directive: usually none, sometimes a
// code-book rebuild (with and without the flush), sometimes a sampling
// flush of a random set.
func genDirective(rng *rand.Rand, numSets int) modes.Directive {
	switch rng.Intn(20) {
	case 0:
		return modes.Directive{RebuildHighCap: true, FlushHighCap: true}
	case 1:
		return modes.Directive{RebuildHighCap: true}
	case 2:
		return modes.Directive{FlushMismatch: []modes.SetMode{{
			Set:              rng.Intn(numSets),
			Mode:             modes.Mode(rng.Intn(modes.NumModes)),
			KeepUncompressed: rng.Intn(2) == 0,
		}}}
	default:
		return modes.Directive{}
	}
}

// DiffCache executes the optimized compressed cache and RefCache side by
// side for ops operations over a randomized small geometry, diffing the
// access results, fill modes, statistics, occupancy, and per-set recency
// snapshots at every step.
func DiffCache(seed int64, ops int) *Divergence {
	rng := rand.New(rand.NewSource(seed))

	numSets := []int{2, 4, 8}[rng.Intn(3)]
	ways := []int{2, 4}[rng.Intn(2)]
	cfg := cache.Config{
		SizeBytes:             compress.LineSize * ways * numSets,
		LineSize:              compress.LineSize,
		Ways:                  ways,
		HitLatency:            uint64(10 + rng.Intn(30)),
		ExtraHitLatency:       uint64(rng.Intn(3)),
		CapacityOnly:          rng.Intn(4) == 0,
		LatencyOnly:           rng.Intn(4) == 0,
		UnboundedDecompressor: rng.Intn(4) == 0,
		DecompInitInterval:    uint64(rng.Intn(4)),
		DecompBufferEntries:   rng.Intn(5),
	}
	// Two codec sets with independent SC state, trained in lockstep.
	useSC := rng.Intn(2) == 0
	dropLowLat := rng.Intn(8) == 0 // exercise the nil-codec degrade path
	mkCodecs := func() [modes.NumModes]compress.Codec {
		var cs [modes.NumModes]compress.Codec
		if !dropLowLat {
			cs[modes.LowLat] = compress.NewBDI()
		}
		if useSC {
			cs[modes.HighCap] = compress.NewSC()
		} else {
			cs[modes.HighCap] = compress.NewBPC()
		}
		return cs
	}
	optCfg, refCfg := cfg, cfg
	optCfg.Codecs = mkCodecs()
	refCfg.Codecs = mkCodecs()

	// Pre-generate the whole operation script so both models consume
	// byte-identical decisions.
	type op struct {
		kind int // 0 access, 1 fill, 2 write touch, 3 flush
		addr uint64
		data []byte
		adv  uint64
	}
	poolLines := numSets * ways * 3
	scr := &script{}
	opsList := make([]op, ops)
	for i := range opsList {
		o := op{adv: uint64(rng.Intn(4))}
		o.addr = uint64(rng.Intn(poolLines)) * uint64(cfg.LineSize)
		if rng.Intn(8) == 0 { // occasionally leave the hot pool
			o.addr = uint64(rng.Intn(poolLines*16)) * uint64(cfg.LineSize)
		}
		switch r := rng.Intn(100); {
		case r < 45:
			o.kind = 0
			scr.directives = append(scr.directives, genDirective(rng, numSets))
		case r < 85:
			o.kind = 1
			o.data = GenLine(rng)
			scr.insertModes = append(scr.insertModes, modes.Mode(rng.Intn(modes.NumModes)))
		case r < 97:
			o.kind = 2
		default:
			o.kind = 3
		}
		opsList[i] = o
	}

	opt := cache.New(optCfg, &scriptedController{s: scr})
	ref := NewRefCache(refCfg)

	var now uint64
	fillIdx, dirIdx := 0, 0
	for step, o := range opsList {
		now += o.adv
		switch o.kind {
		case 0:
			or := opt.Access(o.addr, now)
			rr := ref.Access(o.addr, now)
			ref.ApplyDirective(scr.directives[dirIdx])
			dirIdx++
			if or != rr {
				return diverge("cache", seed, step, "access(%#x, now=%d): optimized %+v, reference %+v", o.addr, now, or, rr)
			}
		case 1:
			om := opt.FillBytes(o.addr, o.data, now)
			rm := ref.Fill(o.addr, o.data, now, scr.insertModes[fillIdx])
			fillIdx++
			if om != rm {
				return diverge("cache", seed, step, "fill(%#x, now=%d): optimized stored %v, reference %v", o.addr, now, om, rm)
			}
		case 2:
			opt.WriteTouch(o.addr, now)
			ref.WriteTouch(o.addr, now)
		case 3:
			opt.Flush()
			ref.Flush()
		}

		if os, rs := opt.Stats(), ref.Stats(); os != rs {
			return diverge("cache", seed, step, "stats diverged after op %d (%s):\noptimized %+v\nreference %+v", step, opName(o.kind), os, rs)
		}
		if ov, rv := opt.ValidLines(), ref.ValidLines(); ov != rv {
			return diverge("cache", seed, step, "valid-line count: optimized %d, reference %d", ov, rv)
		}
		for si := 0; si < numSets; si++ {
			if msg := diffSetViews(opt.SnapshotSet(si), ref.SnapshotSet(si)); msg != "" {
				return diverge("cache", seed, step, "set %d after op %d (%s): %s", si, step, opName(o.kind), msg)
			}
		}
	}
	return nil
}

// opName labels a cache script op for divergence messages.
func opName(kind int) string { return [...]string{"access", "fill", "write-touch", "flush"}[kind] }

// diffSetViews compares two set snapshots field by field, returning ""
// when identical.
func diffSetViews(a, b cache.SetView) string {
	if a.FreeSub != b.FreeSub || a.TotalSub != b.TotalSub {
		return fmt.Sprintf("occupancy: optimized free %d/%d, reference free %d/%d",
			a.FreeSub, a.TotalSub, b.FreeSub, b.TotalSub)
	}
	if len(a.Lines) != len(b.Lines) {
		return fmt.Sprintf("line count: optimized %d, reference %d", len(a.Lines), len(b.Lines))
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			return fmt.Sprintf("recency slot %d: optimized %+v, reference %+v", i, a.Lines[i], b.Lines[i])
		}
	}
	return ""
}

// DiffSchedulers drives the production sim.WarpScheduler in lockstep
// with RefScheduler for both policies over steps cycles of seeded
// events: launch, issue with a drawn latency, block and unblock, retire,
// compaction and fast-forward jumps. Each cycle it compares the pick,
// the Equation 4 accumulators, and NextWake against the earliest
// wake-up. The reference side keeps each warp's state in plain fields
// and rebuilds the list of ready warps every cycle. Capacities up to 160
// warps give multi-word sets, and latencies straddle the 64-cycle wake
// wheel, so wrap-around and far wake-ups are covered.
func DiffSchedulers(seed int64, steps int) *Divergence {
	type refWarp struct {
		id              int
		nextFree        uint64
		parked, retired bool
	}
	for _, kind := range []sim.SchedulerKind{sim.SchedGTO, sim.SchedRR} {
		name := map[sim.SchedulerKind]string{sim.SchedGTO: "sched:GTO", sim.SchedRR: "sched:RR"}[kind]
		rng := rand.New(rand.NewSource(seed))
		maxWarps := 1 + rng.Intn(160)
		opt, ref := sim.NewWarpScheduler(kind, maxWarps), NewRefScheduler(kind)
		var warps []refWarp // by position, as in opt
		now, nextID := uint64(0), 0
		wake := func(p int, t uint64) {
			warps[p].parked, warps[p].nextFree = false, t
			opt.Wake(p, t, now)
		}
		park := func(p int, retire bool) {
			warps[p].parked, warps[p].retired = true, retire
			opt.Park(p)
		}
		latency := func() uint64 { // short, within the wheel span, at its edge, or far
			switch rng.Intn(4) {
			case 0:
				return 1 + uint64(rng.Intn(4))
			case 1:
				return 1 + uint64(rng.Intn(63))
			case 2:
				return 62 + uint64(rng.Intn(5))
			}
			return 64 + uint64(rng.Intn(400))
		}
		parked := func() int { // a random parked live warp, or -1
			p, seen := -1, 0
			for i, w := range warps {
				if w.parked && !w.retired {
					if seen++; rng.Intn(seen) == 0 {
						p = i
					}
				}
			}
			return p
		}
		ready := make([]int, 0, maxWarps)
		for step := -rng.Intn(maxWarps + 1); step < steps; step++ {
			// Between cycles: launches (a burst before step 0) and compaction.
			if len(warps) < maxWarps && (step < 0 || rng.Intn(4) == 0) {
				warps = append(warps, refWarp{id: nextID})
				nextID++
				opt.Add()
			}
			if step < 0 {
				continue
			}
			if rng.Intn(16) == 0 {
				opt.Compact(func(p int) bool { return !warps[p].retired })
				warps = slices.DeleteFunc(warps, func(w refWarp) bool { return w.retired })
			}
			// LSU drain, before the pick: may wake a warp at exactly
			// now+64, in the bucket this cycle's Step drains.
			if p := parked(); p >= 0 && rng.Intn(3) == 0 {
				wake(p, now+1+uint64(rng.Intn(65)))
			}
			ready = ready[:0]
			for _, w := range warps {
				if !w.parked && w.nextFree <= now {
					ready = append(ready, w.id)
				}
			}
			pos, ook := opt.Step(now)
			rid, rok := ref.Step(ready)
			oid := -1
			if ook {
				oid = warps[pos].id
			}
			if ook != rok || oid != rid {
				return diverge(name, seed, step, "pick at cycle %d: optimized (%d, %v), reference (%d, %v) with ready warps %v",
					now, oid, ook, rid, rok, ready)
			}
			if opt.Switches != ref.Switches || opt.ReadySum != ref.ReadySum {
				return diverge(name, seed, step, "accounting: optimized sw=%d rdy=%d, reference sw=%d rdy=%d",
					opt.Switches, opt.ReadySum, ref.Switches, ref.ReadySum)
			}
			// The pick issues an ALU op, blocks (load or barrier), or retires.
			if r := rng.Intn(10); ook && r < 6 {
				wake(pos, now+latency())
			} else if ook {
				park(pos, r == 9)
			}
			// Between picks: fills and barrier releases wake parked warps; a
			// forced finish retires a warp in any state.
			for k := rng.Intn(3); k > 0; k-- {
				if p := parked(); p >= 0 && rng.Intn(4) == 0 {
					wake(p, uint64(rng.Int63n(int64(now)+1)))
				} else if p >= 0 {
					wake(p, now+latency())
				}
			}
			if p := rng.Intn(len(warps) + 1); rng.Intn(20) == 0 && p < len(warps) && !warps[p].retired {
				park(p, true)
			}
			// Next cycle, or a jump no further than NextWake, which must
			// not pass a wake-up.
			now++
			want := ^uint64(0)
			for _, w := range warps {
				if !w.parked {
					want = min(want, max(w.nextFree, now))
				}
			}
			if got := opt.NextWake(now); got > want {
				return diverge(name, seed, step, "NextWake(%d) = %d, but a warp wakes at %d", now, got, want)
			} else if got > now && rng.Intn(3) == 0 {
				now = min(got, now+uint64(rng.Intn(300)))
			}
		}
	}
	return nil
}

// DiffScenarios runs randomized scenario-diversity workloads — multi-
// kernel sequences, concurrent-kernel mixes (KernelSpec.Mix), and
// adversarial compressibility flips (Phase.FlipEvery) — through the
// end-to-end simulator and checks the determinism contracts the scenario
// engine extends: (a) bit-identical trace capture across repeated runs,
// and (b) capture→replay round trips where the packaged ReplayWorkload
// is itself deterministic. Divergences carry the seed and run index for
// replay.
func DiffScenarios(seed int64, runs int) *Divergence {
	styles := []workload.ValueStyle{
		workload.StyleZeroHeavy, workload.StyleSmallInt, workload.StyleStrideInt,
		workload.StylePointer, workload.StyleDictFloat, workload.StyleExpFloat,
		workload.StyleRandom,
	}
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(seed + int64(run)*104729))

		cfg := sim.DefaultConfig()
		cfg.NumSMs = 2 + rng.Intn(2)
		cfg.MaxInstructions = uint64(12_000 + rng.Intn(12_000))
		cfg.MaxCycles = 5_000_000

		regions := []workload.Region{
			{Start: 0, Lines: uint64(1024 + rng.Intn(2048)), Style: styles[rng.Intn(len(styles))], Seed: rng.Uint64()},
			{Start: 1 << 16, Lines: uint64(1024 + rng.Intn(2048)), Style: styles[rng.Intn(len(styles))], Seed: rng.Uint64()},
			{Start: 1 << 17, Lines: uint64(512 + rng.Intn(1024)), Style: styles[rng.Intn(len(styles))], Seed: rng.Uint64()},
		}
		// 1-3 kernels; each either a flat phase list (possibly with an
		// adversarial flip) or a 2-program concurrent mix.
		mkPhases := func() []workload.Phase {
			ph := workload.Phase{
				Kind: workload.PhaseReuse, Region: rng.Intn(len(regions)),
				Iters: 60 + rng.Intn(120), ALU: rng.Intn(4), WSLines: 4 + rng.Intn(40),
			}
			if rng.Intn(2) == 0 {
				ph.FlipEvery = 5 + rng.Intn(60)
				ph.FlipRegion = rng.Intn(len(regions))
			}
			out := []workload.Phase{ph}
			if rng.Intn(2) == 0 {
				out = append(out, workload.Phase{
					Kind: workload.PhaseStream, Region: rng.Intn(len(regions)), Iters: 20 + rng.Intn(40),
				})
			}
			return out
		}
		var kernels []workload.KernelSpec
		for ki, nk := 0, 1+rng.Intn(3); ki < nk; ki++ {
			ks := workload.KernelSpec{
				Name:   fmt.Sprintf("scn-k%d", ki),
				Blocks: 3 + rng.Intn(5), WarpsPerBlock: 2 + rng.Intn(3),
			}
			if rng.Intn(3) == 0 {
				ks.Mix = [][]workload.Phase{mkPhases(), mkPhases()}
			} else {
				ks.Phases = mkPhases()
			}
			kernels = append(kernels, ks)
		}
		spec := &workload.Spec{WName: "scenario-rand", Regions: regions, KernelSeq: kernels}

		factories := []struct {
			name string
			f    sim.ControllerFactory
		}{
			{"static-none", func(int) modes.Controller { return policy.NewStatic(modes.None, "oracle-none", 1024, 8) }},
			{"static-lowlat", func(int) modes.Controller { return policy.NewStatic(modes.LowLat, "oracle-lowlat", 1024, 8) }},
			{"static-highcap", func(int) modes.Controller { return policy.NewStatic(modes.HighCap, "oracle-highcap", 1024, 8) }},
			{"latte", func(n int) modes.Controller { return core.New(core.DefaultConfig(n)) }},
			{"latte-kreset", func(n int) modes.Controller {
				kc := core.DefaultConfig(n)
				kc.KernelBoundaryReset = true
				return core.New(kc)
			}},
		}
		pick := factories[rng.Intn(len(factories))]

		// (a) Capture determinism: two recordings of the same run must be
		// byte-identical.
		captureOnce := func() (*bytes.Buffer, uint64, *Divergence) {
			var buf bytes.Buffer
			tw, err := tracefile.NewWriter(&buf, "SCN")
			if err != nil {
				return nil, 0, diverge("scenario", seed, run, "trace writer: %v", err)
			}
			c := cfg
			c.Trace = tw
			sim.New(c, spec, pick.f).Run()
			if err := tw.Flush(); err != nil {
				return nil, 0, diverge("scenario", seed, run, "trace flush: %v", err)
			}
			return &buf, tw.Count(), nil
		}
		buf1, count, d := captureOnce()
		if d != nil {
			return d
		}
		buf2, _, d := captureOnce()
		if d != nil {
			return d
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			return diverge("scenario", seed, run,
				"repeated capture produced different bytes (%d vs %d, controller %s)",
				buf1.Len(), buf2.Len(), pick.name)
		}

		// (b) Capture→replay round trip: package the recording as a corpus
		// entry; the replay workload must load and be deterministic.
		meta, err := tracefile.EncodeCorpusMeta(tracefile.CorpusEntry{
			Name: "SCN", Source: spec.WName, Category: spec.Category(),
			Blocks: 2 + rng.Intn(3), WarpsPerBlock: 2,
			ALUGapCap: uint32(rng.Intn(64)), Regions: regions,
		}, buf1.Bytes(), count)
		if err != nil {
			return diverge("scenario", seed, run, "corpus meta: %v", err)
		}
		rw, err := tracefile.LoadWorkloadBytes(buf1.Bytes(), meta)
		if err != nil {
			return diverge("scenario", seed, run, "corpus load: %v", err)
		}
		rbase := sim.New(cfg, rw, pick.f).Run().StateHash()
		if again := sim.New(cfg, rw, pick.f).Run().StateHash(); again != rbase {
			return diverge("scenario", seed, run,
				"replay workload not deterministic: %#x vs %#x (controller %s)", again, rbase, pick.name)
		}
	}
	return nil
}

// DiffAll runs every differential suite at the given scale (number of
// base iterations; each suite multiplies it to its natural unit). It
// returns the first divergence found, or nil.
func DiffAll(seed int64, scale int) *Divergence {
	if d := DiffCodecs(seed, 8*scale); d != nil {
		return d
	}
	// Several cache geometries: the config is drawn from the seed, so
	// distinct derived seeds cover distinct corners (capacity-only,
	// latency-only, nil low-latency codec, BPC high-capacity...).
	for i := int64(0); i < 4; i++ {
		if d := DiffCache(seed+100*i+1, 16*scale); d != nil {
			return d
		}
	}
	if d := DiffSchedulers(seed+1000, 16*scale); d != nil {
		return d
	}
	if d := DiffScenarios(seed+3000, scale/8+1); d != nil {
		return d
	}
	return nil
}
