package harness

import (
	"fmt"
	"strings"

	"lattecc/internal/compress"
	"lattecc/internal/core"
	"lattecc/internal/energy"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/stats"
	"lattecc/internal/trace"
	"lattecc/internal/workload"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Run renders the experiment as human-readable text. Simulation
	// failures (unknown workloads, zero-cycle runs) come back as errors
	// for the cmd/ binaries to surface; they never panic.
	Run func(s *Suite) (string, error)
	// Table returns the underlying data table for machine-readable output
	// (CSV); nil for prose/series experiments (fig5, fig16, ablation).
	Table func(s *Suite) (*stats.Table, error)
	// Runs enumerates the simulations the experiment performs on the
	// shared suite, so callers can Prefetch the union of several
	// experiments and drain it through the parallel pool before
	// rendering. Nil for offline experiments and for those that run
	// entirely on privately configured child suites (sens48k).
	Runs func() []RunRequest
}

// renderTable adapts a table builder into an Experiment.Run renderer.
func renderTable(f func(*Suite) (*stats.Table, error)) func(*Suite) (string, error) {
	return func(s *Suite) (string, error) {
		t, err := f(s)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}
}

// Experiments lists every table and figure of the paper's evaluation, in
// paper order. `cmd/experiments -exp <id>` runs one; DESIGN.md carries
// the full index. An experiment with a Table renders it as its Run.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "tab1", Title: "Table I: compression algorithm comparison", Table: tab1Table},
		{ID: "fig1", Title: "Figure 1: IPC sensitivity to added L1 hit latency", Table: fig1Table, Runs: fig1Runs},
		{ID: "fig2", Title: "Figure 2: compression ratio of inserted L1 lines", Table: fig2Table},
		{ID: "fig3", Title: "Figure 3: capacity-only speedup upper bound", Table: fig3Table, Runs: fig3Runs},
		{ID: "fig4", Title: "Figure 4: degradation from decompression latency alone", Table: fig4Table, Runs: fig4Runs},
		{ID: "fig5", Title: "Figure 5: SS latency tolerance over time", Run: fig5, Runs: fig5Runs},
		{ID: "fig6", Title: "Figure 6: potential performance and energy impact", Table: fig6Table, Runs: fig6Runs},
		{ID: "tab2", Title: "Table II: simulated baseline configuration", Table: tab2Table},
		{ID: "tab3", Title: "Table III: benchmarks", Table: tab3Table},
		{ID: "fig11", Title: "Figure 11: speedup vs baseline (all policies)", Table: fig11Table, Runs: fig11Runs},
		{ID: "fig12", Title: "Figure 12: L1 miss reduction", Table: fig12Table, Runs: fig11Runs},
		{ID: "fig13", Title: "Figure 13: normalized GPU energy", Table: fig13Table, Runs: fig13Runs},
		{ID: "fig14", Title: "Figure 14: LATTE-CC energy savings breakdown", Table: fig14Table, Runs: fig14Runs},
		{ID: "fig15", Title: "Figure 15: LATTE-CC vs Kernel-OPT agreement", Table: fig15Table, Runs: fig15Runs},
		{ID: "fig16", Title: "Figure 16: SS effective cache capacity over time", Run: fig16, Runs: fig16Runs},
		{ID: "fig17", Title: "Figure 17: adaptive policy comparison", Table: fig17Table, Runs: fig17Runs},
		{ID: "fig18", Title: "Figure 18: LATTE-CC with BDI+BPC modes", Table: fig18Table, Runs: fig18Runs},
		{ID: "sens48k", Title: "Section V-E: 48KB L1 sensitivity", Table: sens48KTable},
		{ID: "writepolicy", Title: "Section IV-C3: write-avoid vs write-through L1", Table: writePolicyTable, Runs: writePolicyRuns},
		{ID: "sensparams", Title: "LATTE-CC parameter sensitivity (EP length, sampling sets, decompressor)", Table: sensParamsTable, Runs: sensParamsRuns},
		{ID: "ablation", Title: "Design-choice ablations (DESIGN.md section 4)", Run: ablation, Runs: ablationRuns},
	}
	for i := range exps {
		if exps[i].Table != nil {
			exps[i].Run = renderTable(exps[i].Table)
		}
	}
	return exps
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sampledLines returns up to n data lines a workload's programs touch,
// weighted by access frequency (every 8th transaction is sampled), for
// the offline compressibility studies (Table I / Figure 2). Frequency
// weighting approximates the paper's "all cache lines inserted in the
// L1" population: regions a kernel leans on dominate the sample the way
// they dominate insertions.
func sampledLines(w trace.Workload, n int) [][]byte {
	data := w.Data()
	var out [][]byte
	count := 0
	for _, k := range w.Kernels() {
		// Spread sampled warps across the grid so the sample's distinct-
		// line diversity matches the runtime footprint (a single block's
		// warps would make the value population look far smaller than the
		// working set the VFT actually faces).
		blockStride := k.Blocks/8 + 1
		perProgram := n/16 + 1
		for bi := 0; bi < k.Blocks && len(out) < n; bi += blockStride {
			for wi := 0; wi < k.WarpsPerBlock && len(out) < n; wi++ {
				p := k.Program(bi, wi)
				taken := 0
				for len(out) < n && taken < perProgram {
					inst, ok := p.Next()
					if !ok {
						break
					}
					for _, addr := range inst.Addrs {
						count++
						if count%8 != 0 {
							continue
						}
						out = append(out, data.Line(addr/uint64(workload.LineSize)))
						taken++
						if len(out) >= n || taken >= perProgram {
							break
						}
					}
				}
			}
		}
	}
	return out
}

// allCodecs returns fresh instances of the five Table I codecs, with SC
// pre-trained on the sample (its hardware trains online; offline studies
// give it one training pass, mirroring a warmed VFT).
func allCodecs(sample [][]byte) []compress.Codec {
	sc := compress.NewSC()
	for _, l := range sample {
		sc.Train(l)
	}
	sc.Rebuild()
	return []compress.Codec{
		compress.NewBDI(), compress.NewFPC(), compress.NewCPACK(),
		compress.NewBPC(), sc,
	}
}

// ratioOver computes a codec's average compression ratio over lines.
func ratioOver(c compress.Codec, lines [][]byte) float64 {
	var un, co float64
	for _, l := range lines {
		enc := c.Compress(l)
		un += float64(compress.LineSize)
		co += float64(enc.Size)
	}
	if co == 0 {
		return 1
	}
	return un / co
}

// tab1Table reproduces Table I: per-algorithm decompression latency and the
// measured average compression ratio over the whole suite's data.
func tab1Table(s *Suite) (*stats.Table, error) {
	var all [][]byte
	for _, w := range workload.All() {
		all = append(all, sampledLines(w, 200)...)
	}
	t := stats.NewTable("algorithm", "decomp-cycles", "comp-cycles", "avg-ratio", "locality")
	locality := map[string]string{
		"BDI": "spatial", "FPC": "spatial", "CPACK-Z": "both",
		"BPC": "spatial", "SC": "temporal",
	}
	for _, c := range allCodecs(all) {
		t.AddRow(c.Name(), c.DecompLatency(), c.CompLatency(), ratioOver(c, all), locality[c.Name()])
	}
	return t, nil
}

// fig1Workloads are the example workloads of Figure 1.
var fig1Workloads = []string{"PRK", "CLR", "MIS", "BC", "FW"}

// fig1Latencies is the swept added hit latency (BDI=2 ... SC=14).
var fig1Latencies = []uint64{0, 2, 5, 9, 14}

// fig1Table reproduces Figure 1: normalized IPC as L1 hit latency grows.
func fig1Table(s *Suite) (*stats.Table, error) {
	header := []string{"workload"}
	for _, l := range fig1Latencies {
		header = append(header, fmt.Sprintf("+%d", l))
	}
	t := stats.NewTable(header...)
	for _, name := range fig1Workloads {
		row := []interface{}{name}
		for _, lat := range fig1Latencies {
			spd, err := s.Speedup(name, Uncompressed, Variant{ExtraHitLatency: lat})
			if err != nil {
				return nil, err
			}
			row = append(row, spd)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig2Table reproduces Figure 2: per-workload compression ratio under the five
// algorithms, over the lines the workload actually inserts.
func fig2Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("workload", "BDI", "FPC", "CPACK-Z", "BPC", "SC")
	var sums [5]float64
	n := 0
	for _, w := range workload.All() {
		lines := sampledLines(w, 400)
		codecs := allCodecs(lines)
		row := []interface{}{w.Name()}
		for i, c := range codecs {
			r := ratioOver(c, lines)
			sums[i] += r
			row = append(row, r)
		}
		n++
		t.AddRow(row...)
	}
	avg := []interface{}{"MEAN"}
	for _, s := range sums {
		avg = append(avg, s/float64(n))
	}
	t.AddRow(avg...)
	return t, nil
}

// fig3Table reproduces Figure 3: speedup upper bound when compression's
// capacity is free (zero decompression latency).
func fig3Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("workload", "cat", "BDI-cap-only", "SC-cap-only")
	var bdis, scs []float64
	for _, name := range Workloads() {
		cat, _ := Category(name)
		b, err := s.Speedup(name, StaticBDI, Variant{CapacityOnly: true})
		if err != nil {
			return nil, err
		}
		c, err := s.Speedup(name, StaticSC, Variant{CapacityOnly: true})
		if err != nil {
			return nil, err
		}
		if cat == trace.CSens {
			bdis = append(bdis, b)
			scs = append(scs, c)
		}
		t.AddRow(name, cat.String(), b, c)
	}
	t.AddRow("GEOMEAN(C-Sens)", "", stats.Geomean(bdis), stats.Geomean(scs))
	return t, nil
}

// fig4Table reproduces Figure 4: slowdown when decompression latency applies
// but capacity does not.
func fig4Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("workload", "cat", "BDI-lat-only", "SC-lat-only")
	for _, name := range Workloads() {
		cat, _ := Category(name)
		b, err := s.Speedup(name, StaticBDI, Variant{LatencyOnly: true})
		if err != nil {
			return nil, err
		}
		c, err := s.Speedup(name, StaticSC, Variant{LatencyOnly: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, cat.String(), b, c)
	}
	return t, nil
}

// fig5 reproduces Figure 5: SS's latency-tolerance estimate over time.
func fig5(s *Suite) (string, error) {
	res, err := s.Run("SS", LatteCC, Variant{SampleSeries: true})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SS latency tolerance over time (SM0, %d samples)\n", res.ToleranceSeries.Len())
	fmt.Fprintf(&b, "%s\n\n", stats.Sparkline(res.ToleranceSeries.Points(), 72))
	t := stats.NewTable("cycle", "tolerance")
	for _, p := range res.ToleranceSeries.Points() {
		t.AddRow(p.Cycle, p.Value)
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// fig6Table reproduces Figure 6: potential performance (a) and energy (b)
// impact of Static-BDI, Static-SC, and the adaptive scheme, C-Sens.
func fig6Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("workload", "BDI-spd", "SC-spd", "LATTE-spd", "BDI-energy", "SC-energy", "LATTE-energy")
	p := energy.DefaultParams()
	for _, name := range CSensNames() {
		base, err := s.Run(name, Uncompressed, Variant{})
		if err != nil {
			return nil, err
		}
		eb := energy.Evaluate(base, p)
		row := []interface{}{name}
		var spd, en []float64
		for _, pol := range []Policy{StaticBDI, StaticSC, LatteCC} {
			r, err := s.Run(name, pol, Variant{})
			if err != nil {
				return nil, err
			}
			spd = append(spd, float64(base.Cycles)/float64(r.Cycles))
			en = append(en, energy.Normalized(energy.Evaluate(r, p), eb))
		}
		row = append(row, spd[0], spd[1], spd[2], en[0], en[1], en[2])
		t.AddRow(row...)
	}
	return t, nil
}

// tab2Table prints the simulated configuration (Table II).
func tab2Table(s *Suite) (*stats.Table, error) {
	cfg := s.Config()
	t := stats.NewTable("parameter", "value")
	t.AddRow("Num. of SMs", cfg.NumSMs)
	t.AddRow("Max warps per SM", cfg.MaxWarpsPerSM)
	t.AddRow("Max blocks per SM", cfg.MaxBlocksPerSM)
	t.AddRow("Schedulers per SM", cfg.SchedulersPerSM)
	t.AddRow("Warp size", cfg.WarpSize)
	t.AddRow("L1 data cache", fmt.Sprintf("%dKB/SM, %dB lines, %d-way",
		cfg.Cache.SizeBytes/1024, cfg.Cache.LineSize, cfg.Cache.Ways))
	t.AddRow("L2 cache", fmt.Sprintf("%dKB, %d banks, %d-way",
		cfg.Mem.L2SizeBytes/1024, cfg.Mem.L2Banks, cfg.Mem.L2Ways))
	t.AddRow("Min L2 latency", cfg.Mem.L2Latency)
	t.AddRow("Min DRAM latency", cfg.Mem.L2Latency+cfg.Mem.DRAMLatency)
	t.AddRow("Warp scheduler", "GTO")
	t.AddRow("MSHRs per SM", cfg.MSHRs)
	t.AddRow("L1 ports", cfg.L1Ports)
	return t, nil
}

// tab3Table prints the benchmark suite (Table III).
func tab3Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("abbr", "category", "kernels", "approx-insts")
	for _, w := range workload.All() {
		var insts int
		for _, k := range w.Kernels() {
			perWarp := 0
			p := k.Program(0, 0)
			for {
				if _, ok := p.Next(); !ok {
					break
				}
				perWarp++
			}
			insts += perWarp * k.Blocks * k.WarpsPerBlock
		}
		t.AddRow(w.Name(), w.Category().String(), len(w.Kernels()), insts)
	}
	return t, nil
}

// fig11Policies is the Figure 11 policy set.
var fig11Policies = []Policy{StaticBDI, StaticSC, LatteCC, KernelOpt}

// fig11Table reproduces Figure 11: speedup over the uncompressed baseline.
func fig11Table(s *Suite) (*stats.Table, error) {
	header := []string{"workload", "cat"}
	for _, p := range fig11Policies {
		header = append(header, string(p))
	}
	t := stats.NewTable(header...)
	agg := map[Policy][]float64{}
	for _, name := range Workloads() {
		cat, _ := Category(name)
		row := []interface{}{name, cat.String()}
		for _, p := range fig11Policies {
			spd, err := s.Speedup(name, p, Variant{})
			if err != nil {
				return nil, err
			}
			row = append(row, spd)
			if cat == trace.CSens {
				agg[p] = append(agg[p], spd)
			}
		}
		t.AddRow(row...)
	}
	row := []interface{}{"GEOMEAN", "C-Sens"}
	for _, p := range fig11Policies {
		row = append(row, stats.Geomean(agg[p]))
	}
	t.AddRow(row...)
	return t, nil
}

// fig12Table reproduces Figure 12: L1 miss reduction per policy.
func fig12Table(s *Suite) (*stats.Table, error) {
	header := []string{"workload", "cat"}
	for _, p := range fig11Policies {
		header = append(header, string(p))
	}
	t := stats.NewTable(header...)
	agg := map[Policy][]float64{}
	for _, name := range Workloads() {
		cat, _ := Category(name)
		row := []interface{}{name, cat.String()}
		for _, p := range fig11Policies {
			mr, err := s.MissReduction(name, p)
			if err != nil {
				return nil, err
			}
			row = append(row, mr)
			if cat == trace.CSens {
				agg[p] = append(agg[p], mr)
			}
		}
		t.AddRow(row...)
	}
	row := []interface{}{"MEAN", "C-Sens"}
	for _, p := range fig11Policies {
		row = append(row, stats.Mean(agg[p]))
	}
	t.AddRow(row...)
	return t, nil
}

// fig13Table reproduces Figure 13: GPU energy normalized to the baseline.
func fig13Table(s *Suite) (*stats.Table, error) {
	pols := []Policy{StaticBDI, StaticSC, LatteCC}
	header := []string{"workload", "cat"}
	for _, p := range pols {
		header = append(header, string(p))
	}
	t := stats.NewTable(header...)
	params := energy.DefaultParams()
	agg := map[Policy][]float64{}
	for _, name := range Workloads() {
		cat, _ := Category(name)
		baseRun, err := s.Run(name, Uncompressed, Variant{})
		if err != nil {
			return nil, err
		}
		base := energy.Evaluate(baseRun, params)
		row := []interface{}{name, cat.String()}
		for _, p := range pols {
			r, err := s.Run(name, p, Variant{})
			if err != nil {
				return nil, err
			}
			e := energy.Normalized(energy.Evaluate(r, params), base)
			row = append(row, e)
			if cat == trace.CSens {
				agg[p] = append(agg[p], e)
			}
		}
		t.AddRow(row...)
	}
	row := []interface{}{"MEAN", "C-Sens"}
	for _, p := range pols {
		row = append(row, stats.Mean(agg[p]))
	}
	t.AddRow(row...)
	return t, nil
}

// fig14Table reproduces Figure 14: the breakdown of LATTE-CC's energy savings
// for C-Sens workloads.
func fig14Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("workload", "static", "data-movement", "mem-hierarchy", "exec", "codec-cost", "net")
	params := energy.DefaultParams()
	var sums energy.SavingsBreakdown
	n := 0
	for _, name := range CSensNames() {
		baseRun, err := s.Run(name, Uncompressed, Variant{})
		if err != nil {
			return nil, err
		}
		latteRun, err := s.Run(name, LatteCC, Variant{})
		if err != nil {
			return nil, err
		}
		sv := energy.Savings(energy.Evaluate(latteRun, params), energy.Evaluate(baseRun, params))
		t.AddRow(name, sv.Static, sv.DataMovement, sv.MemHierarchy, sv.Exec, sv.CodecCost, sv.Net)
		sums.Add(sv)
		n++
	}
	mean := sums.Scale(1 / float64(n))
	t.AddRow("MEAN", mean.Static, mean.DataMovement, mean.MemHierarchy, mean.Exec, mean.CodecCost, mean.Net)
	return t, nil
}

// fig15Table reproduces Figure 15: fraction of execution where LATTE-CC's
// decision agrees with Kernel-OPT's, and the performance delta.
func fig15Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("workload", "agree-frac", "perf-delta(KernelOPT - LATTE)")
	for _, name := range CSensNames() {
		latte, err := s.Run(name, LatteCC, Variant{})
		if err != nil {
			return nil, err
		}
		sched, err := s.kernelOptSchedule(name, Variant{})
		if err != nil {
			return nil, err
		}
		agree, total := 0, 0
		for i, m := range latte.EPLog {
			ki := 0
			if i < len(latte.EPKernels) {
				ki = int(latte.EPKernels[i])
			}
			if ki >= len(sched) {
				ki = len(sched) - 1
			}
			if ki >= 0 && sched[ki] == m {
				agree++
			}
			total++
		}
		frac := 0.0
		if total > 0 {
			frac = float64(agree) / float64(total)
		}
		lspd, err := s.Speedup(name, LatteCC, Variant{})
		if err != nil {
			return nil, err
		}
		kspd, err := s.Speedup(name, KernelOpt, Variant{})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, frac, kspd-lspd)
	}
	return t, nil
}

// fig16 reproduces Figure 16: SS's effective cache capacity over time for
// Static-BDI, Static-SC, and LATTE-CC.
func fig16(s *Suite) (string, error) {
	var b strings.Builder
	for _, p := range []Policy{StaticBDI, StaticSC, LatteCC} {
		res, err := s.Run("SS", p, Variant{SampleSeries: true})
		if err != nil {
			return "", err
		}
		pts := res.CapacitySeries.Points()
		var avg float64
		for _, pt := range pts {
			avg += pt.Value
		}
		if len(pts) > 0 {
			avg /= float64(len(pts))
		}
		fmt.Fprintf(&b, "%-12s avg effective capacity %.2fx (%d samples)\n", p, avg, len(pts))
	}
	res, err := s.Run("SS", LatteCC, Variant{SampleSeries: true})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nLATTE-CC capacity over time:\n%s\n\n", stats.Sparkline(res.CapacitySeries.Points(), 72))
	b.WriteString("LATTE-CC capacity series:\n")
	t := stats.NewTable("cycle", "effective-capacity-x")
	for _, p := range res.CapacitySeries.Points() {
		t.AddRow(p.Cycle, p.Value)
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// fig17Table reproduces Figure 17: LATTE-CC against the tolerance-blind
// adaptive baselines, C-Sens workloads.
func fig17Table(s *Suite) (*stats.Table, error) {
	pols := []Policy{AdaptiveHits, AdaptiveCMP, LatteCC}
	header := []string{"workload"}
	for _, p := range pols {
		header = append(header, string(p)+"-spd", string(p)+"-missred")
	}
	t := stats.NewTable(header...)
	agg := map[Policy][]float64{}
	for _, name := range CSensNames() {
		row := []interface{}{name}
		for _, p := range pols {
			spd, err := s.Speedup(name, p, Variant{})
			if err != nil {
				return nil, err
			}
			mr, err := s.MissReduction(name, p)
			if err != nil {
				return nil, err
			}
			row = append(row, spd, mr)
			agg[p] = append(agg[p], spd)
		}
		t.AddRow(row...)
	}
	row := []interface{}{"GEOMEAN"}
	for _, p := range pols {
		row = append(row, stats.Geomean(agg[p]), "")
	}
	t.AddRow(row...)
	return t, nil
}

// fig18Table reproduces Figure 18: LATTE-CC with BDI+BPC component codecs.
func fig18Table(s *Suite) (*stats.Table, error) {
	t := stats.NewTable("workload", "LATTE-CC", "LATTE-CC-BDI-BPC")
	var a, b []float64
	for _, name := range CSensNames() {
		l, err := s.Speedup(name, LatteCC, Variant{})
		if err != nil {
			return nil, err
		}
		bp, err := s.Speedup(name, LatteBDIBPC, Variant{})
		if err != nil {
			return nil, err
		}
		a = append(a, l)
		b = append(b, bp)
		t.AddRow(name, l, bp)
	}
	t.AddRow("GEOMEAN", stats.Geomean(a), stats.Geomean(b))
	return t, nil
}

// sens48KTable reproduces the Section V-E cache-size sensitivity: the same
// comparison with a 48KB L1 (the alternative NVIDIA carve-out).
func sens48KTable(s *Suite) (*stats.Table, error) {
	cfg := s.Config()
	cfg.Cache.SizeBytes = 48 * 1024
	big := s.child(cfg)
	big.Prefetch(cross(CSensNames(), []Policy{Uncompressed, StaticBDI, LatteCC}, Variant{})...)
	if err := big.RunAll(); err != nil {
		return nil, err
	}
	t := stats.NewTable("workload", "Static-BDI", "LATTE-CC")
	var bs, ls []float64
	for _, name := range CSensNames() {
		b, err := big.Speedup(name, StaticBDI, Variant{})
		if err != nil {
			return nil, err
		}
		l, err := big.Speedup(name, LatteCC, Variant{})
		if err != nil {
			return nil, err
		}
		bs, ls = append(bs, b), append(ls, l)
		t.AddRow(name, b, l)
	}
	t.AddRow("GEOMEAN", stats.Geomean(bs), stats.Geomean(ls))
	return t, nil
}

// writePolicyWorkloads are the store-carrying benchmarks of the
// Section IV-C3 write-policy study.
var writePolicyWorkloads = []string{"FWT", "BP", "WC", "SR1", "SS", "KM"}

// writePolicyTable verifies the paper's Section IV-C3 claim that the L1 write
// policy has negligible performance impact, by re-running store-carrying
// workloads with a write-through L1 (write hits expand compressed lines
// and may evict neighbours) against the default write-avoid policy.
func writePolicyTable(s *Suite) (*stats.Table, error) {
	cfg := s.Config()
	cfg.WriteThroughL1 = true
	wt := s.child(cfg)
	wt.Prefetch(writePolicyRuns()...)
	if err := wt.RunAll(); err != nil {
		return nil, err
	}
	t := stats.NewTable("workload", "write-avoid", "write-through", "delta%%")
	for _, name := range writePolicyWorkloads {
		a, err := s.Speedup(name, LatteCC, Variant{})
		if err != nil {
			return nil, err
		}
		b, err := wt.Speedup(name, LatteCC, Variant{})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, a, b, 100*(b/a-1))
	}

	// Worst-case bound: a kernel that repeatedly stores into a resident,
	// compressed working set — every store is a write hit that expands a
	// compressed line. Real workloads sit far from this corner.
	stress := &workload.Spec{
		WName: "WSTRESS", Cat: trace.CSens,
		Regions: []workload.Region{{Start: 0, Lines: 1 << 13, Style: workload.StyleDictFloat, Seed: 77, Dict: 64}},
		KernelSeq: []workload.KernelSpec{{
			Name: "stress", Blocks: 60, WarpsPerBlock: 8,
			Phases: []workload.Phase{
				{Kind: workload.PhaseReuse, Region: 0, Iters: 600, ALU: 2, WSLines: 10},
				{Kind: workload.PhaseStore, Region: 0, Iters: 300, ALU: 1},
				{Kind: workload.PhaseReuse, Region: 0, Iters: 600, ALU: 2, WSLines: 10},
			},
		}},
	}
	stressSpeedup := func(cfg sim.Config) (float64, error) {
		baseRes, err := RunWorkload(cfg, stress, Uncompressed)
		if err != nil {
			return 0, err
		}
		res, err := RunWorkload(cfg, stress, LatteCC)
		if err != nil {
			return 0, err
		}
		return float64(baseRes.Cycles) / float64(res.Cycles), nil
	}
	a, err := stressSpeedup(s.Config())
	if err != nil {
		return nil, err
	}
	bCfg := s.Config()
	bCfg.WriteThroughL1 = true
	bv, err := stressSpeedup(bCfg)
	if err != nil {
		return nil, err
	}
	t.AddRow("WSTRESS(bound)", a, bv, 100*(bv/a-1))
	return t, nil
}

// sensParamsTable sweeps LATTE-CC's own parameters (Section IV-C3 choices) on
// SS: the EP length, the number of dedicated sampling sets, and the
// decompressor initiation interval.
func sensParamsTable(s *Suite) (*stats.Table, error) {
	base, err := s.Run("SS", Uncompressed, Variant{})
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName("SS")
	if err != nil {
		return nil, err
	}
	latteSpeedup := func(cfg sim.Config, mutate func(*core.Config)) float64 {
		res := sim.New(cfg, w, func(n int) modes.Controller {
			c := core.DefaultConfig(n)
			if mutate != nil {
				mutate(&c)
			}
			return core.New(c)
		}).Run()
		return float64(base.Cycles) / float64(res.Cycles)
	}

	t := stats.NewTable("parameter", "value", "SS-speedup")
	for _, ep := range []uint64{64, 128, 256, 512, 1024} {
		ep := ep
		t.AddRow("EP length (accesses)", ep, latteSpeedup(s.Config(), func(c *core.Config) { c.EPAccesses = ep }))
	}
	for _, ded := range []int{1, 2, 4, 8} {
		ded := ded
		t.AddRow("dedicated sets/mode", ded, latteSpeedup(s.Config(), func(c *core.Config) { c.DedicatedSetsPerMode = ded }))
	}
	for _, ii := range []uint64{1, 2, 4, 8} {
		cfg := s.Config()
		cfg.Cache.DecompInitInterval = ii
		t.AddRow("decompressor II (cycles)", ii, latteSpeedup(cfg, nil))
	}
	return t, nil
}

// ablationWorkloads pick a representative C-Sens pair (one SC-affine,
// one BDI-affine) plus a latency-critical C-InSens victim.
var ablationWorkloads = []string{"SS", "FW", "NW"}

// ablation quantifies the design choices DESIGN.md sections 4-5 call
// out, on the ablationWorkloads trio.
func ablation(s *Suite) (string, error) {
	var b strings.Builder
	b.WriteString("Ablations on SS (SC-affine), FW (BDI-affine), NW (latency-critical):\n\n")
	names := ablationWorkloads
	t := stats.NewTable("ablation", "SS", "FW", "NW")

	row := func(label string, run func(name string) (float64, error)) error {
		cells := []interface{}{label}
		for _, n := range names {
			v, err := run(n)
			if err != nil {
				return err
			}
			cells = append(cells, v)
		}
		t.AddRow(cells...)
		return nil
	}

	speedupWith := func(suite *Suite, name string) (float64, error) {
		return suite.Speedup(name, LatteCC, Variant{})
	}

	// The three child machines (unbounded decompressor, round-robin
	// scheduler, decompressed-line buffer) are independent of the main
	// suite; pre-submit their run sets through one shared pool so the
	// row-by-row rendering below is all cache hits.
	cfg := s.Config()
	cfg.Cache.UnboundedDecompressor = true
	noQueue := s.child(cfg)
	rrCfg := s.Config()
	rrCfg.Scheduler = sim.SchedRR
	rr := s.child(rrCfg)
	bufCfg := s.Config()
	bufCfg.Cache.DecompBufferEntries = 8
	buf := s.child(bufCfg)
	for _, c := range []*Suite{noQueue, rr, buf} {
		c.Prefetch(ablationRuns()...)
	}
	if err := RunAllSuites(s.Jobs, noQueue, rr, buf); err != nil {
		return "", err
	}

	// Default configuration.
	if err := row("default", func(n string) (float64, error) { return speedupWith(s, n) }); err != nil {
		return "", err
	}

	// 1. Unbounded decompressor (Equation 3 queue term removed).
	if err := row("no-decomp-queue", func(n string) (float64, error) { return speedupWith(noQueue, n) }); err != nil {
		return "", err
	}

	// 2. Paper-literal controller layout: learning first (cold-biased
	// sampling), no warmup decontamination, no sampling backoff.
	if err := row("paper-literal-controller", func(n string) (float64, error) {
		return latteVariantSpeedup(s, n, func(c *core.Config) {
			c.LearningStartEP = 0
			c.WarmupEPs = 0
			c.SampleEveryPeriods = 0
		})
	}); err != nil {
		return "", err
	}

	// 3. No hit-count carryover EP (Section III-B1's generational-reuse
	// argument).
	if err := row("no-carryover", func(n string) (float64, error) {
		return latteVariantSpeedup(s, n, func(c *core.Config) { c.CarryoverEPs = 0 })
	}); err != nil {
		return "", err
	}

	// 4. No sampling backoff (pay the sampling overhead every period).
	if err := row("no-sampling-backoff", func(n string) (float64, error) {
		return latteVariantSpeedup(s, n, func(c *core.Config) { c.SampleEveryPeriods = 0 })
	}); err != nil {
		return "", err
	}

	// 5. Round-robin scheduler (Section III-B2's simpler tolerance case).
	if err := row("rr-scheduler", func(n string) (float64, error) { return speedupWith(rr, n) }); err != nil {
		return "", err
	}

	// 6. Decompressed-line buffer extension (beyond the paper): 8 entries
	// of recently decompressed lines short-circuit repeat decompressions.
	if err := row("decomp-buffer-8", func(n string) (float64, error) { return speedupWith(buf, n) }); err != nil {
		return "", err
	}

	b.WriteString(t.String())
	return b.String(), nil
}

// latteVariantSpeedup runs a workload under a LATTE-CC controller with a
// modified configuration, against the suite's cached baseline.
func latteVariantSpeedup(s *Suite, name string, mutate func(*core.Config)) (float64, error) {
	base, err := s.Run(name, Uncompressed, Variant{})
	if err != nil {
		return 0, err
	}
	w, err := workload.ByName(name)
	if err != nil {
		return 0, err
	}
	res := sim.New(s.Config(), w, func(n int) modes.Controller {
		cfg := core.DefaultConfig(n)
		mutate(&cfg)
		return core.New(cfg)
	}).Run()
	return float64(base.Cycles) / float64(res.Cycles), nil
}
