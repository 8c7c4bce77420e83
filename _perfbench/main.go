// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload against the simulator's own
// packages, checks every output for correctness, and prints each metric
// by name with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload table2-sim --seed 1 --seconds 15 --trace 0
//	perfbench --selftest
//	perfbench --compare a.json b.json
//
// With --trace 0 it reports the end-to-end metrics of an untraced timed
// phase; with --trace 1 it runs a traced round between two untraced ones,
// times calls into every layer from outside, and reports the per-layer
// metrics and the tracing overhead. Simulated quantities come from a model that
// is unvalidated against hardware; every simulation starts with empty
// caches. run.sh builds and runs it from a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lattecc/internal/energy"
	"lattecc/internal/sim"
)

// setupReps is how many times each run sets the workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// options are the inputs of one workload run.
type options struct {
	root   string // repository checkout (testdata lives here)
	tmp    string // directory for temporary stores, inside the checkout
	seed   int64
	rounds int
	small  bool // self-test size
}

// roundResult is what one timed round produced.
type roundResult struct {
	jobs       []time.Duration // host latency of each job, submit to result
	attempted  int
	failed     int
	freshInsts uint64          // warp-instructions of simulations run fresh
	earlyClose int             // job event streams that closed before their terminal event
	pairs      [][2]sim.Result // (Uncompressed, LATTE-CC) on the same input
}

// instance is a workload that has been set up and can run timed rounds.
type instance interface {
	// round runs one timed round. tr is nil in untraced rounds.
	round(r int, tr *tracer) (roundResult, error)
	// probe is the input the per-layer probes run on.
	probe() probeInput
	close()
}

type workloadDef struct {
	name string
	// nominal is the host time of one round on a 2-core x86 box; the
	// round count is --seconds divided by it, so it is fixed per
	// invocation and count-like metrics do not depend on timing.
	nominal time.Duration
	setup   func(opts options) (instance, error)
}

var workloads = []workloadDef{
	{"table2-sim", 5 * time.Second, setupTable2},
	{"fig11-batch", 8500 * time.Millisecond, setupFig11},
	{"serve-warm", 600 * time.Millisecond, setupServe},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envRecord identifies the host a result was measured on. Host-time
// metrics are only comparable between records whose envRecord matches.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// record is the file written for every run.
type record struct {
	Env      envRecord `json:"env"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Result   result    `json:"result"`
}

func currentEnv() envRecord {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return envRecord{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpu,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: table2-sim, fig11-batch or serve-warm")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 15, "length of the timed phase in seconds (sets the round count)")
		traced   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository checkout")
		out      = flag.String("out", ".bench_build/perfbench-out", "directory for records, spans and temporary stores")
		selftest = flag.Bool("selftest", false, "run every workload at reduced size and check the report")
		compare  = flag.Bool("compare", false, "compare two record files given as arguments")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareRecords(flag.Args())
	case *selftest:
		err = runSelftest(*root, *out)
	default:
		err = runOne(*name, *seed, *seconds, *traced == 1, *root, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runOne(name string, seed int64, seconds int, traced bool, root, out string) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	tmp := filepath.Join(out, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(tmp)
	opts := options{root: root, tmp: tmp, seed: seed}
	env := currentEnv()
	fmt.Printf("env go=%s %s/%s cpu=%q nproc=%d gomaxprocs=%d seed=%d workload=%s\n",
		env.GoVersion, env.GOOS, env.GOARCH, env.CPU, env.NumCPU, env.GOMAXPROCS, seed, name)
	fmt.Println("note: simulated quantities come from a model unvalidated against hardware; every simulation starts with empty caches")

	var res result
	var err error
	if traced {
		res, err = measureTraced(def, opts, out)
	} else {
		opts.rounds = int(math.Max(1, math.Round(float64(seconds)*float64(time.Second)/float64(def.nominal))))
		res, err = measure(def, opts)
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rec := record{Env: env, Workload: name, Seed: seed, Trace: traced, Result: res}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("record-%s-seed%d-trace%t-%d.json", name, seed, traced, os.Getpid()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("record", path)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs were not correct")
	}
	return nil
}

// setupAll sets the workload up setupReps times, closing all but the
// last instance, and returns it with the median set-up time.
func setupAll(def workloadDef, opts options) (instance, float64, error) {
	var inst instance
	var times []float64
	reps := setupReps
	if opts.small {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = def.setup(opts)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Printf("set-ups %.3f s, median taken\n", times)
	return inst, median(times), nil
}

// measure runs the untraced timed phase and derives the end-to-end
// metrics.
func measure(def workloadDef, opts options) (result, error) {
	inst, setupS, err := setupAll(def, opts)
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	var total roundResult
	var walls []float64
	runtime.GC()
	alloc0 := heapAllocs()
	start := time.Now()
	for r := 0; r < opts.rounds; r++ {
		roundStart := time.Now()
		rr, err := inst.round(r, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s round %d: %w", def.name, r, err)
		}
		walls = append(walls, time.Since(roundStart).Seconds())
		total.jobs = append(total.jobs, rr.jobs...)
		total.attempted += rr.attempted
		total.failed += rr.failed
		total.freshInsts += rr.freshInsts
		total.earlyClose += rr.earlyClose
		if r == 0 {
			total.pairs = rr.pairs
		}
	}
	wall := time.Since(start)
	allocMB := float64(heapAllocs()-alloc0) / 1e6
	retainedMB := float64(retainedHeap()) / 1e6

	jobsMS := durationsMS(total.jobs)
	beyond := samplesBeyond(len(jobsMS), 0.9)
	speedup, energyNorm := pairFigures(total.pairs)
	m := map[string]float64{
		"setup_s":          setupS,
		"wall_s":           wall.Seconds(),
		"sim_minsts_per_s": float64(total.freshInsts) / 1e6 / wall.Seconds(),
		"jobs_per_s":       float64(len(total.jobs)) / wall.Seconds(),
		"job_p50_ms":       hdQuantile(jobsMS, 0.5),
		"job_p90_ms":       hdQuantile(jobsMS, 0.9),
		"alloc_mb":         allocMB,
		"retained_mb":      retainedMB,
		"ok_frac":          okFrac(total.attempted, total.failed),
		"sim_speedup":      speedup,
		"sim_energy_norm":  energyNorm,
	}
	fmt.Printf("round walls %.3f s; %d jobs, %d of them beyond job_p90_ms (Harrell-Davis quantiles); %d speed-up pairs\n", walls, len(jobsMS), beyond, len(total.pairs))
	fmt.Printf("fail_frac %g (%d failed of %d attempted)\n", 1-m["ok_frac"], total.failed, total.attempted)
	if total.earlyClose > 0 {
		fmt.Printf("job event streams that closed before their terminal event: %d\n", total.earlyClose)
	}
	fmt.Println("paper reference for sim_speedup/sim_energy_norm: none for this machine and workload set, so no error figure is given")
	return report(endToEnd, m, total.attempted, total.failed), nil
}

// measureTraced runs a traced round between two untraced ones, then the
// per-layer probes, and derives the per-layer metrics. The tracing
// overhead is the traced round's wall time minus the mean of the two
// untraced rounds around it.
func measureTraced(def workloadDef, opts options, out string) (result, error) {
	opts.rounds = 3
	inst, _, err := setupAll(def, opts)
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	var walls [3]time.Duration
	tr := newTracer()
	attempted, failed := 0, 0
	for r := range walls {
		var rtr *tracer
		if r == 1 {
			rtr = tr
		}
		start := time.Now()
		rr, err := inst.round(r, rtr)
		if err != nil {
			return result{}, fmt.Errorf("%s round %d: %w", def.name, r, err)
		}
		walls[r] = time.Since(start)
		attempted += rr.attempted
		failed += rr.failed
	}
	untraced := (walls[0] + walls[2]) / 2

	m, probeAttempted, probeFailed, err := runProbes(tr, inst.probe(), opts)
	if err != nil {
		return result{}, fmt.Errorf("%s probes: %w", def.name, err)
	}
	m["trace.overhead_s"] = (walls[1] - untraced).Seconds()
	attempted += probeAttempted
	failed += probeFailed

	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d-%d.json", def.name, opts.seed, os.Getpid()))
	if err := tr.write(spans); err != nil {
		return result{}, err
	}
	fmt.Printf("tracing overhead: untraced rounds %.3fs and %.3fs, traced round %.3fs, difference %.3fs; spans in %s\n",
		walls[0].Seconds(), walls[2].Seconds(), walls[1].Seconds(), m["trace.overhead_s"], spans)
	return report(perLayer, m, attempted, failed), nil
}

// report prints every metric by name, unit and clock, and builds the
// result line. A metric that was not measured fails the run.
func report(defs []metricDef, m map[string]float64, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("metric %s not measured\n", d.name)
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		line := fmt.Sprintf("metric %-32s %16.6g %-8s [%s]", d.name, v, d.unit, d.clock)
		if d.moves != "" {
			line += " moves: " + d.moves
		}
		fmt.Println(line)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	return res
}

func okFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// pairFigures returns the geomean LATTE-CC speed-up over Uncompressed in
// simulated cycles and the geomean LATTE-CC energy relative to
// Uncompressed, across the pairs.
func pairFigures(pairs [][2]sim.Result) (speedup, energyNorm float64) {
	params := energy.DefaultParams()
	var spd, en []float64
	for _, p := range pairs {
		base, latte := p[0], p[1]
		spd = append(spd, float64(base.Cycles)/float64(latte.Cycles))
		en = append(en, energy.Normalized(energy.Evaluate(latte, params), energy.Evaluate(base, params)))
	}
	return geomean(spd), geomean(en)
}

// compareRecords prints the ratio of every metric of two records. It
// refuses to compare host-time metrics when the records were measured in
// different environments, and compares only simulated ones then.
func compareRecords(paths []string) error {
	if len(paths) != 2 {
		return errors.New("--compare takes two record files")
	}
	var recs [2]record
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("records are of different runs: %s trace=%t vs %s trace=%t", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	sameEnv := a.Env == b.Env
	if !sameEnv {
		fmt.Printf("environments differ (%+v vs %+v): refusing to compare host-time metrics\n", a.Env, b.Env)
	}
	defs := endToEnd
	if a.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if !sameEnv && d.clock == "host" {
			continue
		}
		va, vb := a.Result.Metrics[d.name].Value, b.Result.Metrics[d.name].Value
		fmt.Printf("%-32s %14.6g %14.6g  b/a=%.4f %s\n", d.name, va, vb, vb/va, d.unit)
	}
	if !sameEnv {
		return errors.New("host-time metrics not compared: environments differ")
	}
	return nil
}

// runSelftest runs every workload twice at reduced size, untraced, and
// once traced. It checks that every metric is reported with its unit and
// matches BENCHMARK.json, that no operation failed, and that the
// simulated figures are identical across the two calls.
func runSelftest(root, out string) error {
	if err := checkBenchmarkJSON(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return err
	}
	tmp := filepath.Join(out, fmt.Sprintf("selftest-%d", os.Getpid()))
	defer os.RemoveAll(tmp)
	for _, def := range workloads {
		opts := options{root: root, tmp: tmp, seed: 1, rounds: 1, small: true}
		var calls [2]result
		for i := range calls {
			res, err := measure(def, opts)
			if err != nil {
				return err
			}
			if err := checkReport(def.name, endToEnd, res); err != nil {
				return err
			}
			calls[i] = res
		}
		for _, name := range []string{"sim_speedup", "sim_energy_norm"} {
			if a, b := calls[0].Metrics[name].Value, calls[1].Metrics[name].Value; a != b {
				return fmt.Errorf("%s: %s differs between two calls: %v vs %v", def.name, name, a, b)
			}
		}
		res, err := measureTraced(def, opts, tmp)
		if err != nil {
			return err
		}
		if err := checkReport(def.name, perLayer, res); err != nil {
			return err
		}
		fmt.Printf("selftest %s: ok\n", def.name)
	}
	fmt.Println("selftest: ok")
	return nil
}

func checkReport(name string, defs []metricDef, res result) error {
	if !res.Correct || res.Failed != 0 {
		return fmt.Errorf("%s: %d of %d operations failed (fail_frac must be 0)", name, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics reported, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("%s: metric %s missing or not in %s", name, d.name, d.unit)
		}
	}
	return nil
}

// checkBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func checkBenchmarkJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(what string, got []named, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d %s, the program has %d", path, len(got), what, len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || (w.unit != "" && got[i].Unit != w.unit) {
				return fmt.Errorf("%s: %s entry %d is %s %s, the program has %s %s", path, what, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
		return nil
	}
	var wls []metricDef
	for _, w := range workloads {
		wls = append(wls, metricDef{name: w.name})
	}
	for _, err := range []error{
		same("workloads", doc.Workloads, wls),
		same("end_to_end metrics", doc.EndToEnd, endToEnd),
		same("per_layer metrics", doc.PerLayer, perLayer),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}
