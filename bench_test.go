// Benchmarks mapping to the paper's tables and figures. Each bench runs
// the representative computation behind one table/figure and reports the
// domain metric (speedup, compression ratio, ...) via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the headline numbers alongside
// the usual ns/op. The full-resolution rows/series come from
// `go run ./cmd/experiments -all`; the benches here use a reduced GPU
// (4 SMs) so the whole suite completes in minutes.
package lattecc_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"lattecc"
)

// benchConfig is the reduced machine used by the simulation benches.
func benchConfig() lattecc.Config {
	cfg := lattecc.DefaultConfig()
	cfg.NumSMs = 4
	return cfg
}

// benchSuite caches runs across bench iterations of one benchmark.
func runOnce(b *testing.B, s *lattecc.Suite, w string, p lattecc.Policy, v lattecc.Variant) lattecc.Result {
	b.Helper()
	res, err := s.Run(w, p, v)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Table I / Figure 2: codec compression ratio and throughput ---

// codecCorpus builds a mixed-value-locality corpus.
func codecCorpus(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		line := make([]byte, lattecc.LineSize)
		switch i % 3 {
		case 0: // spatial
			base := rng.Uint32() &^ 0xFFF
			for j := 0; j < 32; j++ {
				binary.LittleEndian.PutUint32(line[j*4:], base+uint32(j*3))
			}
		case 1: // temporal
			for j := 0; j < 32; j++ {
				binary.LittleEndian.PutUint32(line[j*4:], uint32(rng.Intn(64))*0x01010101)
			}
		default: // random
			rng.Read(line)
		}
		out[i] = line
	}
	return out
}

// BenchmarkTab1Codecs measures each codec's software compression
// throughput and reports its ratio over the mixed corpus (Table I).
func BenchmarkTab1Codecs(b *testing.B) {
	corpus := codecCorpus(512)
	sc := lattecc.NewSC()
	for _, l := range corpus {
		sc.Train(l)
	}
	sc.Rebuild()
	codecs := []lattecc.Codec{
		lattecc.NewBDI(), lattecc.NewFPC(), lattecc.NewCPACK(),
		lattecc.NewBPC(), sc,
	}
	for _, c := range codecs {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			var in, out int
			b.SetBytes(int64(len(corpus) * lattecc.LineSize))
			for i := 0; i < b.N; i++ {
				in, out = 0, 0
				for _, l := range corpus {
					enc := c.Compress(l)
					in += lattecc.LineSize
					out += enc.Size
				}
			}
			b.ReportMetric(float64(in)/float64(out), "ratio")
		})
	}
}

// BenchmarkFig2CompressionRatios reports BDI vs SC ratio contrast on the
// suite's two archetype workloads (Figure 2's phenomenon).
func BenchmarkFig2CompressionRatios(b *testing.B) {
	for _, tc := range []struct {
		workload string
		style    lattecc.ValueStyle
	}{{"FW-like", lattecc.StyleStrideInt}, {"SS-like", lattecc.StyleDictFloat}} {
		tc := tc
		b.Run(tc.workload, func(b *testing.B) {
			r := lattecc.Region{Start: 0, Lines: 4096, Style: tc.style, Seed: 3, Dict: 128}
			w := &lattecc.WorkloadSpec{
				WName: "x", Regions: []lattecc.Region{r},
				KernelSeq: []lattecc.KernelSpec{{Name: "k", Blocks: 1, WarpsPerBlock: 1,
					Phases: []lattecc.PhaseSpec{{Kind: lattecc.PhaseStream, Region: 0, Iters: 256}}}},
			}
			data := w.Data()
			bdi := lattecc.NewBDI()
			sc := lattecc.NewSC()
			for i := uint64(0); i < 512; i++ {
				sc.Train(data.Line(i))
			}
			sc.Rebuild()
			var bdiOut, scOut int
			for i := 0; i < b.N; i++ {
				bdiOut, scOut = 0, 0
				for l := uint64(0); l < 256; l++ {
					bdiOut += bdi.Compress(data.Line(l)).Size
					scOut += sc.Compress(data.Line(l)).Size
				}
			}
			total := 256.0 * lattecc.LineSize
			b.ReportMetric(total/float64(bdiOut), "BDI-ratio")
			b.ReportMetric(total/float64(scOut), "SC-ratio")
		})
	}
}

// --- Figure 1: hit-latency tolerance sweep ---

func BenchmarkFig1HitLatencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		base := runOnce(b, s, "CLR", lattecc.Uncompressed, lattecc.Variant{})
		slow := runOnce(b, s, "CLR", lattecc.Uncompressed, lattecc.Variant{ExtraHitLatency: 9})
		b.ReportMetric(float64(base.Cycles)/float64(slow.Cycles), "normIPC@+9")
	}
}

// --- Figure 3: capacity-only upper bound ---

func BenchmarkFig3ZeroLatencyUpperBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		base := runOnce(b, s, "SS", lattecc.Uncompressed, lattecc.Variant{})
		cap := runOnce(b, s, "SS", lattecc.StaticSC, lattecc.Variant{CapacityOnly: true})
		b.ReportMetric(float64(base.Cycles)/float64(cap.Cycles), "upper-bound-speedup")
	}
}

// --- Figure 4: latency-only degradation ---

func BenchmarkFig4LatencyOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		base := runOnce(b, s, "NW", lattecc.Uncompressed, lattecc.Variant{})
		lat := runOnce(b, s, "NW", lattecc.StaticSC, lattecc.Variant{LatencyOnly: true})
		b.ReportMetric(float64(base.Cycles)/float64(lat.Cycles), "latency-only-speedup")
	}
}

// --- Figure 5 / 16: over-time series ---

func BenchmarkFig5ToleranceSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		res := runOnce(b, s, "SS", lattecc.LatteCC, lattecc.Variant{SampleSeries: true})
		if res.ToleranceSeries.Len() == 0 {
			b.Fatal("no tolerance samples")
		}
		b.ReportMetric(float64(res.ToleranceSeries.Len()), "samples")
	}
}

func BenchmarkFig16CapacitySeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		res := runOnce(b, s, "SS", lattecc.LatteCC, lattecc.Variant{SampleSeries: true})
		pts := res.CapacitySeries.Points()
		var avg float64
		for _, p := range pts {
			avg += p.Value
		}
		b.ReportMetric(avg/float64(len(pts)), "avg-capacity-x")
	}
}

// --- Figures 6/11/12/13: the main comparison ---

// fig11Pair runs one (workload, policy) speedup on the bench machine.
func fig11Pair(b *testing.B, w string, p lattecc.Policy) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		base := runOnce(b, s, w, lattecc.Uncompressed, lattecc.Variant{})
		run := runOnce(b, s, w, p, lattecc.Variant{})
		b.ReportMetric(float64(base.Cycles)/float64(run.Cycles), "speedup")
	}
}

func BenchmarkFig11Speedup(b *testing.B) {
	cases := []struct {
		w string
		p lattecc.Policy
	}{
		{"SS", lattecc.LatteCC},
		{"SS", lattecc.StaticSC},
		{"FW", lattecc.LatteCC},
		{"FW", lattecc.StaticBDI},
		{"KM", lattecc.LatteCC},
		{"NW", lattecc.StaticSC},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.w+"/"+string(tc.p), func(b *testing.B) { fig11Pair(b, tc.w, tc.p) })
	}
}

func BenchmarkFig12MissReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		base := runOnce(b, s, "SS", lattecc.Uncompressed, lattecc.Variant{})
		run := runOnce(b, s, "SS", lattecc.LatteCC, lattecc.Variant{})
		b.ReportMetric(1-float64(run.Cache.Misses)/float64(base.Cache.Misses), "miss-reduction")
	}
}

func BenchmarkFig13Energy(b *testing.B) {
	params := lattecc.DefaultEnergyParams()
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		base := lattecc.EvaluateEnergy(runOnce(b, s, "SS", lattecc.Uncompressed, lattecc.Variant{}), params)
		run := lattecc.EvaluateEnergy(runOnce(b, s, "SS", lattecc.LatteCC, lattecc.Variant{}), params)
		b.ReportMetric(run.Total()/base.Total(), "norm-energy")
	}
}

func BenchmarkFig14EnergyBreakdown(b *testing.B) {
	params := lattecc.DefaultEnergyParams()
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		res := runOnce(b, s, "KM", lattecc.LatteCC, lattecc.Variant{})
		eb := lattecc.EvaluateEnergy(res, params)
		b.ReportMetric(eb.Static/eb.Total(), "static-share")
	}
}

// --- Figure 15: Kernel-OPT comparison ---

func BenchmarkFig15KernelOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(benchConfig())
		latte := runOnce(b, s, "MM", lattecc.LatteCC, lattecc.Variant{})
		ko := runOnce(b, s, "MM", lattecc.KernelOpt, lattecc.Variant{})
		b.ReportMetric(float64(ko.Cycles)/float64(latte.Cycles), "latte-vs-kernelopt")
	}
}

// --- Figure 17: adaptive baselines ---

func BenchmarkFig17AdaptiveBaselines(b *testing.B) {
	for _, p := range []lattecc.Policy{lattecc.LatteCC, lattecc.AdaptiveHits, lattecc.AdaptiveCMP} {
		p := p
		b.Run(string(p), func(b *testing.B) { fig11Pair(b, "SS", p) })
	}
}

// --- Figure 18: BDI+BPC variant ---

func BenchmarkFig18BDIBPC(b *testing.B) {
	for _, p := range []lattecc.Policy{lattecc.LatteCC, lattecc.LatteBDIBPC} {
		p := p
		b.Run(string(p), func(b *testing.B) { fig11Pair(b, "PF", p) })
	}
}

// --- Section V-E: 48KB L1 ---

func BenchmarkSens48KL1(b *testing.B) {
	cfg := benchConfig()
	cfg.Cache.SizeBytes = 48 * 1024
	for i := 0; i < b.N; i++ {
		s := lattecc.NewSuite(cfg)
		base := runOnce(b, s, "SS", lattecc.Uncompressed, lattecc.Variant{})
		run := runOnce(b, s, "SS", lattecc.LatteCC, lattecc.Variant{})
		b.ReportMetric(float64(base.Cycles)/float64(run.Cycles), "speedup@48KB")
	}
}

// --- Ablations (DESIGN.md section 4) ---

func BenchmarkAblationDecompQueue(b *testing.B) {
	for _, unbounded := range []bool{false, true} {
		name := "queued"
		if unbounded {
			name = "unbounded"
		}
		unbounded := unbounded
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Cache.UnboundedDecompressor = unbounded
			for i := 0; i < b.N; i++ {
				s := lattecc.NewSuite(cfg)
				base := runOnce(b, s, "SS", lattecc.Uncompressed, lattecc.Variant{})
				run := runOnce(b, s, "SS", lattecc.StaticSC, lattecc.Variant{})
				b.ReportMetric(float64(base.Cycles)/float64(run.Cycles), "speedup")
			}
		})
	}
}

// --- Raw simulator throughput ---

func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchConfig()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := lattecc.Run(cfg, "BO", lattecc.Uncompressed)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Instructions
	}
	b.ReportMetric(float64(insts), "insts/run")
}

// BenchmarkAblationDecompBuffer measures the decompressed-line buffer
// extension (beyond the paper) on the SC-heavy showcase.
func BenchmarkAblationDecompBuffer(b *testing.B) {
	for _, entries := range []int{0, 8} {
		entries := entries
		name := "off"
		if entries > 0 {
			name = "on-8"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Cache.DecompBufferEntries = entries
			for i := 0; i < b.N; i++ {
				s := lattecc.NewSuite(cfg)
				base := runOnce(b, s, "SS", lattecc.Uncompressed, lattecc.Variant{})
				run := runOnce(b, s, "SS", lattecc.StaticSC, lattecc.Variant{})
				b.ReportMetric(float64(base.Cycles)/float64(run.Cycles), "speedup")
			}
		})
	}
}
