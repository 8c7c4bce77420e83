package oracle

import (
	"testing"

	"lattecc/internal/cache"
	"lattecc/internal/compress"
	"lattecc/internal/harness"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/workload"
)

// Metamorphic properties: relations that must hold between runs on
// transformed inputs, without knowing the correct output of either run.

// TestMetamorphicZeroPadMonotone: zeroing a suffix of a line's words must
// never increase the compressed size — for the codecs where the format
// guarantees it. FPC absorbs zero words into zero-run tokens (≤ the
// replaced token's width) and CPACK emits 2-bit zero codes (the minimum
// token width), so both are suffix-zeroing monotone. BDI, BPC and SC are
// deliberately excluded: zeroing words can break a line-wide property a
// cheaper encoding depended on (BDI: all-deltas-fit; BPC: a smooth delta
// sequence gets a step discontinuity; SC: zero may be a cold value in
// this period's code book). TestZeroPadMonotoneCounterexample pins that
// exclusion to a live witness.
func TestMetamorphicZeroPadMonotone(t *testing.T) {
	codecs := []compress.Codec{compress.NewFPC(), compress.NewCPACK()}
	for seed := int64(1); seed <= 40; seed++ {
		rng := newTestRand(seed)
		line := GenLine(rng)
		for _, c := range codecs {
			prev := c.Compress(line).Size
			padded := append([]byte(nil), line...)
			for w := compress.WordsPerLine - 1; w >= 0; w-- {
				putLE32(padded, w, 0)
				size := c.Compress(padded).Size
				if size > prev {
					t.Fatalf("seed %d %s: zeroing words [%d:] grew size %d -> %d",
						seed, c.Name(), w, prev, size)
				}
				prev = size
			}
		}
	}
}

// TestZeroPadMonotoneCounterexample documents why BDI is excluded from
// the monotone property: there must exist a line whose size grows when a
// suffix is zeroed (zeros escape the narrow-delta range of the base).
// If BDI ever becomes monotone this test fails, signalling the exclusion
// above should be revisited.
func TestZeroPadMonotoneCounterexample(t *testing.T) {
	bdi := compress.NewBDI()
	for seed := int64(1); seed <= 200; seed++ {
		rng := newTestRand(seed)
		line := GenLine(rng)
		orig := bdi.Compress(line).Size
		padded := append([]byte(nil), line...)
		for w := compress.WordsPerLine - 1; w >= 0; w-- {
			putLE32(padded, w, 0)
			if bdi.Compress(padded).Size > orig {
				return // witness found: BDI is genuinely non-monotone
			}
		}
	}
	t.Fatal("no BDI zero-padding counterexample found — exclusion may be obsolete")
}

// TestMetamorphicTagRelabelInvariance: adding a set-preserving constant
// family to every line address must not change any observable cache
// behaviour — hits, latencies, statistics, occupancy, recency order —
// only the tags themselves, which must relabel exactly.
func TestMetamorphicTagRelabelInvariance(t *testing.T) {
	const ops = 600
	for seed := int64(1); seed <= 6; seed++ {
		rng := newTestRand(seed)

		numSets := 4
		cfg := cache.Config{
			SizeBytes:           compress.LineSize * 4 * numSets,
			LineSize:            compress.LineSize,
			Ways:                4,
			HitLatency:          20,
			DecompBufferEntries: 2,
		}
		mk := func() [modes.NumModes]compress.Codec {
			var cs [modes.NumModes]compress.Codec
			cs[modes.LowLat] = compress.NewBDI()
			cs[modes.HighCap] = compress.NewSC()
			return cs
		}
		cfgA, cfgB := cfg, cfg
		cfgA.Codecs = mk()
		cfgB.Codecs = mk()

		// relabel preserves the set index (offset is a multiple of
		// numSets) and injectivity (strictly increasing in lineAddr).
		relabel := func(lineAddr uint64) uint64 {
			return lineAddr + uint64(numSets)*997*(lineAddr+1)
		}

		scr := &script{}
		type op struct {
			kind     int
			lineAddr uint64
			data     []byte
		}
		opsList := make([]op, ops)
		for i := range opsList {
			o := op{lineAddr: uint64(rng.Intn(numSets * 12))}
			switch r := rng.Intn(100); {
			case r < 45:
				o.kind = 0
				scr.directives = append(scr.directives, genDirective(rng, numSets))
			case r < 90:
				o.kind = 1
				o.data = GenLine(rng)
				scr.insertModes = append(scr.insertModes, modes.Mode(rng.Intn(modes.NumModes)))
			default:
				o.kind = 2
			}
			opsList[i] = o
		}

		// Both caches consume the same script through separate cursors.
		a := cache.New(cfgA, &scriptedController{s: scr})
		b := cache.New(cfgB, &scriptedController{s: scr})

		var now uint64
		for step, o := range opsList {
			now += 2
			addrA := o.lineAddr * uint64(cfg.LineSize)
			addrB := relabel(o.lineAddr) * uint64(cfg.LineSize)
			switch o.kind {
			case 0:
				ra, rb := a.Access(addrA, now), b.Access(addrB, now)
				if ra != rb {
					t.Fatalf("seed %d step %d: access results differ: %+v vs %+v", seed, step, ra, rb)
				}
			case 1:
				ma, mb := a.FillBytes(addrA, o.data, now), b.FillBytes(addrB, o.data, now)
				if ma != mb {
					t.Fatalf("seed %d step %d: fill modes differ: %v vs %v", seed, step, ma, mb)
				}
			case 2:
				a.WriteTouch(addrA, now)
				b.WriteTouch(addrB, now)
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("seed %d step %d: stats differ:\n%+v\n%+v", seed, step, sa, sb)
			}
		}
		for si := 0; si < numSets; si++ {
			va, vb := a.SnapshotSet(si), b.SnapshotSet(si)
			// Map the original tags forward; everything else must match.
			for i := range va.Lines {
				va.Lines[i].Tag = relabel(va.Lines[i].Tag)
			}
			if msg := diffSetViews(va, vb); msg != "" {
				t.Fatalf("seed %d set %d: %s", seed, si, msg)
			}
		}
	}
}

// metaSuiteRuns is the small cross-product the harness-level metamorphic
// tests exercise: cheap workloads under compressing policies.
func metaSuiteRuns() []harness.RunRequest {
	names := workload.Names()
	if len(names) > 2 {
		names = names[:2]
	}
	var reqs []harness.RunRequest
	for _, w := range names {
		for _, p := range []harness.Policy{harness.Uncompressed, harness.StaticBDI} {
			reqs = append(reqs, harness.RunRequest{Workload: w, Policy: p})
		}
	}
	return reqs
}

func metaConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxInstructions = 30_000
	return cfg
}

// TestMetamorphicJobsInvariance: suite results must be bit-identical
// whether runs execute serially or through a 4-worker pool.
func TestMetamorphicJobsInvariance(t *testing.T) {
	reqs := metaSuiteRuns()
	hashes := make([][]uint64, 2)
	for i, jobs := range []int{1, 4} {
		s := harness.NewSuite(metaConfig())
		s.Jobs = jobs
		s.Prefetch(reqs...)
		if err := s.RunAll(); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for _, r := range reqs {
			res, err := s.Run(r.Workload, r.Policy, r.Variant)
			if err != nil {
				t.Fatalf("jobs=%d %s/%s: %v", jobs, r.Workload, r.Policy, err)
			}
			hashes[i] = append(hashes[i], res.StateHash())
		}
	}
	for k, r := range reqs {
		if hashes[0][k] != hashes[1][k] {
			t.Errorf("%s/%s: state hash differs between -jobs 1 (%#x) and -jobs 4 (%#x)",
				r.Workload, r.Policy, hashes[0][k], hashes[1][k])
		}
	}
}

// TestMetamorphicRunOrderInvariance: executing the same run set in
// reverse order on a fresh suite must produce identical state hashes —
// runs share no hidden state.
func TestMetamorphicRunOrderInvariance(t *testing.T) {
	reqs := metaSuiteRuns()
	run := func(order []harness.RunRequest) map[harness.RunRequest]uint64 {
		s := harness.NewSuite(metaConfig())
		out := make(map[harness.RunRequest]uint64)
		for _, r := range order {
			res, err := s.Run(r.Workload, r.Policy, r.Variant)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.Workload, r.Policy, err)
			}
			out[r] = res.StateHash()
		}
		return out
	}
	fwd := run(reqs)
	rev := make([]harness.RunRequest, len(reqs))
	for i, r := range reqs {
		rev[len(reqs)-1-i] = r
	}
	bwd := run(rev)
	for _, r := range reqs {
		if fwd[r] != bwd[r] {
			t.Errorf("%s/%s: state hash depends on run order (%#x vs %#x)",
				r.Workload, r.Policy, fwd[r], bwd[r])
		}
	}
}
