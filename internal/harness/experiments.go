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
		fig1().experiment("fig1", "Figure 1: IPC sensitivity to added L1 hit latency"),
		{ID: "fig2", Title: "Figure 2: compression ratio of inserted L1 lines", Table: fig2Table},
		fig3().experiment("fig3", "Figure 3: capacity-only speedup upper bound"),
		fig4().experiment("fig4", "Figure 4: degradation from decompression latency alone"),
		{ID: "fig5", Title: "Figure 5: SS latency tolerance over time", Run: fig5, Runs: fig5Runs},
		fig6().experiment("fig6", "Figure 6: potential performance and energy impact"),
		{ID: "tab2", Title: "Table II: simulated baseline configuration", Table: tab2Table},
		{ID: "tab3", Title: "Table III: benchmarks", Table: tab3Table},
		fig11().experiment("fig11", "Figure 11: speedup vs baseline (all policies)"),
		fig12().experiment("fig12", "Figure 12: L1 miss reduction"),
		fig13().experiment("fig13", "Figure 13: normalized GPU energy"),
		{ID: "fig14", Title: "Figure 14: LATTE-CC energy savings breakdown", Table: fig14Table, Runs: fig14Runs},
		{ID: "fig15", Title: "Figure 15: LATTE-CC vs Kernel-OPT agreement", Table: fig15Table, Runs: fig15Runs},
		{ID: "fig16", Title: "Figure 16: SS effective cache capacity over time", Run: fig16, Runs: fig16Runs},
		fig17().experiment("fig17", "Figure 17: adaptive policy comparison"),
		fig18().experiment("fig18", "Figure 18: LATTE-CC with BDI+BPC modes"),
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

// metric normalises a run to its workload's uncompressed baseline.
type metric int

const (
	speedup       metric = iota // baseline cycles over the run's cycles
	missReduction               // relative L1 miss reduction (positive = fewer)
	energyNorm                  // GPU energy over the baseline's
)

// column is one figure column: the run of policy under variant, read
// through metric against the row's baseline. agg folds the column's
// C-Sens cells into the aggregate row; nil leaves that cell blank.
type column struct {
	header  string
	policy  Policy
	variant Variant
	metric  metric
	agg     func([]float64) float64
}

// reads lists the runs a cell of c reads on row workload: the baseline,
// then the column's own run.
func (c column) reads(workload string) [2]RunRequest {
	return [2]RunRequest{
		{Workload: workload, Policy: Uncompressed},
		{Workload: workload, Policy: c.policy, Variant: c.variant},
	}
}

// value computes c's cell on row workload from exactly the runs
// c.reads lists.
func (c column) value(s *Suite, workload string) (float64, error) {
	var res [2]sim.Result
	for i, r := range c.reads(workload) {
		var err error
		if res[i], err = s.Run(r.Workload, r.Policy, r.Variant); err != nil {
			return 0, err
		}
	}
	base, run := res[0], res[1]
	switch c.metric {
	case missReduction:
		if base.Cache.Misses == 0 {
			return 0, nil
		}
		return 1 - float64(run.Cache.Misses)/float64(base.Cache.Misses), nil
	case energyNorm:
		p := energy.DefaultParams()
		return energy.Normalized(energy.Evaluate(run, p), energy.Evaluate(base, p)), nil
	}
	if run.Cycles == 0 {
		return 0, fmt.Errorf("harness: zero-cycle run for %s/%s", workload, c.policy)
	}
	return float64(base.Cycles) / float64(run.Cycles), nil
}

// matrix is the shape most of the evaluation takes: one row per
// workload, one normalised cell per column, and an optional aggregate
// row. The same value renders the table and lists the runs its cells
// read, so the two cannot drift.
type matrix struct {
	rows     func() []string // evaluated late: trace workloads register at startup
	category bool            // a "cat" column after the workload
	cols     []column
	// aggLabel leads the aggregate row (nil: no aggregate row). The row
	// folds the C-Sens rows, which on the C-Sens-only figures is every row.
	aggLabel []string
}

// experiment wraps m as an Experiment whose Table and Runs both come
// from m.
func (m matrix) experiment(id, title string) Experiment {
	return Experiment{ID: id, Title: title, Table: m.table, Runs: m.runs}
}

// runs lists every run m's cells read, once each, row by row.
func (m matrix) runs() []RunRequest {
	var reqs []RunRequest
	seen := map[RunRequest]bool{}
	for _, name := range m.rows() {
		for _, c := range m.cols {
			for _, r := range c.reads(name) {
				if !seen[r] {
					seen[r] = true
					reqs = append(reqs, r)
				}
			}
		}
	}
	return reqs
}

// table renders m over s.
func (m matrix) table(s *Suite) (*stats.Table, error) {
	header := []string{"workload"}
	if m.category {
		header = append(header, "cat")
	}
	for _, c := range m.cols {
		header = append(header, c.header)
	}
	t := stats.NewTable(header...)
	csens := make([][]float64, len(m.cols))
	for _, name := range m.rows() {
		cat, _ := Category(name)
		row := []interface{}{name}
		if m.category {
			row = append(row, cat.String())
		}
		for i, c := range m.cols {
			v, err := c.value(s, name)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if cat == trace.CSens {
				csens[i] = append(csens[i], v)
			}
		}
		t.AddRow(row...)
	}
	if m.aggLabel != nil {
		var row []interface{}
		for _, l := range m.aggLabel {
			row = append(row, l)
		}
		for i, c := range m.cols {
			if c.agg == nil {
				row = append(row, "")
			} else {
				row = append(row, c.agg(csens[i]))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// policyCols is one column per policy, headed by its name, under the
// plain variant.
func policyCols(m metric, agg func([]float64) float64, pols ...Policy) []column {
	cols := make([]column, len(pols))
	for i, p := range pols {
		cols[i] = column{header: string(p), policy: p, metric: m, agg: agg}
	}
	return cols
}

// cross enumerates names x policies under one variant, in order, for
// the experiments that list their runs by hand.
func cross(names []string, pols []Policy, v Variant) []RunRequest {
	reqs := make([]RunRequest, 0, len(names)*len(pols))
	for _, n := range names {
		for _, p := range pols {
			reqs = append(reqs, RunRequest{Workload: n, Policy: p, Variant: v})
		}
	}
	return reqs
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
		un += float64(compress.LineSize)
		co += float64(c.Measure(l).Size)
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

// fig1 reproduces Figure 1: normalized IPC as L1 hit latency grows, on
// its example workloads, over the swept added hit latency (BDI=2 ...
// SC=14).
func fig1() matrix {
	return matrix{
		rows: func() []string { return []string{"PRK", "CLR", "MIS", "BC", "FW"} },
		cols: func() (cols []column) {
			for _, lat := range []uint64{0, 2, 5, 9, 14} {
				cols = append(cols, column{header: fmt.Sprintf("+%d", lat), policy: Uncompressed, variant: Variant{ExtraHitLatency: lat}})
			}
			return cols
		}(),
	}
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

// fig3 reproduces Figure 3: speedup upper bound when compression's
// capacity is free (zero decompression latency).
func fig3() matrix {
	return matrix{
		rows:     Workloads,
		category: true,
		cols: []column{
			{header: "BDI-cap-only", policy: StaticBDI, variant: Variant{CapacityOnly: true}, agg: stats.Geomean},
			{header: "SC-cap-only", policy: StaticSC, variant: Variant{CapacityOnly: true}, agg: stats.Geomean},
		},
		aggLabel: []string{"GEOMEAN(C-Sens)", ""},
	}
}

// fig4 reproduces Figure 4: slowdown when decompression latency applies
// but capacity does not.
func fig4() matrix {
	return matrix{
		rows:     Workloads,
		category: true,
		cols: []column{
			{header: "BDI-lat-only", policy: StaticBDI, variant: Variant{LatencyOnly: true}},
			{header: "SC-lat-only", policy: StaticSC, variant: Variant{LatencyOnly: true}},
		},
	}
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

func fig5Runs() []RunRequest {
	return []RunRequest{{Workload: "SS", Policy: LatteCC, Variant: Variant{SampleSeries: true}}}
}

// fig6 reproduces Figure 6: potential performance (a) and energy (b)
// impact of Static-BDI, Static-SC, and the adaptive scheme, C-Sens.
func fig6() matrix {
	return matrix{
		rows: CSensNames,
		cols: []column{
			{header: "BDI-spd", policy: StaticBDI},
			{header: "SC-spd", policy: StaticSC},
			{header: "LATTE-spd", policy: LatteCC},
			{header: "BDI-energy", policy: StaticBDI, metric: energyNorm},
			{header: "SC-energy", policy: StaticSC, metric: energyNorm},
			{header: "LATTE-energy", policy: LatteCC, metric: energyNorm},
		},
	}
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

// fig11 reproduces Figure 11: speedup over the uncompressed baseline.
// The Kernel-OPT prerequisites (the three statics) are among its runs,
// so they parallelize as peer tasks.
func fig11() matrix {
	return matrix{
		rows:     Workloads,
		category: true,
		cols:     policyCols(speedup, stats.Geomean, StaticBDI, StaticSC, LatteCC, KernelOpt),
		aggLabel: []string{"GEOMEAN", "C-Sens"},
	}
}

// fig12 reproduces Figure 12: L1 miss reduction per policy.
func fig12() matrix {
	return matrix{
		rows:     Workloads,
		category: true,
		cols:     policyCols(missReduction, stats.Mean, StaticBDI, StaticSC, LatteCC, KernelOpt),
		aggLabel: []string{"MEAN", "C-Sens"},
	}
}

// fig13 reproduces Figure 13: GPU energy normalized to the baseline.
func fig13() matrix {
	return matrix{
		rows:     Workloads,
		category: true,
		cols:     policyCols(energyNorm, stats.Mean, StaticBDI, StaticSC, LatteCC),
		aggLabel: []string{"MEAN", "C-Sens"},
	}
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

func fig14Runs() []RunRequest {
	return cross(CSensNames(), []Policy{Uncompressed, LatteCC}, Variant{})
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

func fig15Runs() []RunRequest {
	return cross(CSensNames(), []Policy{Uncompressed, StaticBDI, StaticSC, LatteCC, KernelOpt}, Variant{})
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

func fig16Runs() []RunRequest {
	return cross([]string{"SS"}, []Policy{StaticBDI, StaticSC, LatteCC}, Variant{SampleSeries: true})
}

// fig17 reproduces Figure 17: LATTE-CC against the tolerance-blind
// adaptive baselines, C-Sens workloads.
func fig17() matrix {
	return matrix{
		rows: CSensNames,
		cols: func() (cols []column) {
			for _, p := range []Policy{AdaptiveHits, AdaptiveCMP, LatteCC} {
				cols = append(cols,
					column{header: string(p) + "-spd", policy: p, agg: stats.Geomean},
					column{header: string(p) + "-missred", policy: p, metric: missReduction})
			}
			return cols
		}(),
		aggLabel: []string{"GEOMEAN"},
	}
}

// fig18 reproduces Figure 18: LATTE-CC with BDI+BPC component codecs.
func fig18() matrix {
	return matrix{
		rows:     CSensNames,
		cols:     policyCols(speedup, stats.Geomean, LatteCC, LatteBDIBPC),
		aggLabel: []string{"GEOMEAN"},
	}
}

// sens48K is the Section V-E cache-size sensitivity: the same comparison
// with a 48KB L1 (the alternative NVIDIA carve-out).
func sens48K() matrix {
	return matrix{
		rows:     CSensNames,
		cols:     policyCols(speedup, stats.Geomean, StaticBDI, LatteCC),
		aggLabel: []string{"GEOMEAN"},
	}
}

// sens48KTable renders sens48K on a child suite with a 48KB L1.
func sens48KTable(s *Suite) (*stats.Table, error) {
	cfg := s.Config()
	cfg.Cache.SizeBytes = 48 * 1024
	big := s.child(cfg)
	m := sens48K()
	big.Prefetch(m.runs()...)
	if err := big.RunAll(); err != nil {
		return nil, err
	}
	return m.table(big)
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

// writePolicyRuns covers the default-machine half of the write-policy
// study; the write-through half runs on a child suite the experiment
// prefetches internally.
func writePolicyRuns() []RunRequest {
	return cross(writePolicyWorkloads, []Policy{Uncompressed, LatteCC}, Variant{})
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

func sensParamsRuns() []RunRequest {
	return []RunRequest{{Workload: "SS", Policy: Uncompressed, Variant: Variant{}}}
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

func ablationRuns() []RunRequest {
	return cross(ablationWorkloads, []Policy{Uncompressed, LatteCC}, Variant{})
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
