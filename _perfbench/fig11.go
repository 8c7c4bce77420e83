package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lattecc/internal/harness"
	"lattecc/internal/sim"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// tinyConfig is the CI golden-gate machine of cmd/experiments -tiny:
// 2 SMs and a 120k-instruction cap.
func tinyConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxInstructions = 120_000
	return cfg
}

// poolWorkers is the closed-loop client count of the multi-job
// workloads: at most two, and never more than the host's CPUs.
func poolWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// corpusRegistered is set once loadCorpus has registered the corpus.
var corpusRegistered bool

// loadCorpus validates the committed trace corpus and registers its
// entries as workloads. Every call reads and validates the corpus; only
// the first registers it, because the registry is start-up only. Set-ups
// run one at a time, so no lock is needed.
func loadCorpus(root string) error {
	ws, err := tracefile.LoadCorpus(filepath.Join(root, "testdata", "traces"))
	if err != nil || corpusRegistered {
		return err
	}
	for _, w := range ws {
		if err := workload.RegisterExternal(w); err != nil {
			return err
		}
	}
	corpusRegistered = true
	return nil
}

// fig11 is the fig11-batch workload: the tiny machine running the
// Figure 11 run set (every workload, the trace corpus included, under
// five policies) through harness.Suite with two closed-loop workers.
// Many short runs make harness run-cache reuse (Kernel-OPT's three
// statics) and tracefile replay workloads take part.
type fig11 struct {
	cfg    sim.Config
	exp    harness.Experiment
	runs   []harness.RunRequest
	golden string // the fig11 section of testdata/golden_tiny.txt
	small  bool
	hashes hashBook
	last   []keyedResult
}

func setupFig11(opts options) (instance, error) {
	if err := loadCorpus(opts.root); err != nil {
		return nil, err
	}
	exp, ok := harness.ExperimentByID("fig11")
	if !ok {
		return nil, fmt.Errorf("no fig11 experiment")
	}
	f := &fig11{cfg: tinyConfig(), exp: exp, small: opts.small, hashes: hashBook{}}
	data, err := os.ReadFile(filepath.Join(opts.root, "testdata", "golden_tiny.txt"))
	if err != nil {
		return nil, err
	}
	if f.golden, err = goldenSection(string(data), exp.ID); err != nil {
		return nil, err
	}

	f.runs = exp.Runs()
	if opts.small {
		f.runs = onlyWorkloads(f.runs, "BO", "FW", "SS", "TBO")
	}
	// The run set is the figure's; the seed rotates its submission order.
	// A rotation keeps each workload's five runs adjacent, so Kernel-OPT
	// follows its statics and the pairs of runs that overlap on the two
	// workers stay the same from seed to seed.
	k := int(uint64(opts.seed) % uint64(len(f.runs)))
	f.runs = append(f.runs[k:], f.runs[:k]...)

	// Warm-up of the same kind: a small batch of short workloads through
	// the same pool on a suite that is then dropped.
	warm := onlyWorkloads(exp.Runs(), "HW", "NW", "BO", "TBO")
	if _, _, errs := runPool(harness.NewSuite(f.cfg), warm, poolWorkers(), nil, -1); firstErr(errs) != nil {
		return nil, firstErr(errs)
	}
	return f, nil
}

// goldenSection extracts one "== id: title ==" section, with the blank
// line that ends it, from a golden file.
func goldenSection(golden, id string) (string, error) {
	start := strings.Index(golden, "== "+id+":")
	if start < 0 {
		return "", fmt.Errorf("golden file has no %s section", id)
	}
	rest := golden[start:]
	if end := strings.Index(rest[1:], "\n== "); end >= 0 {
		rest = rest[:end+2]
	}
	return rest, nil
}

func onlyWorkloads(reqs []harness.RunRequest, names ...string) []harness.RunRequest {
	var out []harness.RunRequest
	for _, r := range reqs {
		for _, n := range names {
			if r.Workload == n {
				out = append(out, r)
			}
		}
	}
	return out
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPool drains reqs through suite.Run with the given closed-loop
// workers and returns each run's host latency and result.
func runPool(suite *harness.Suite, reqs []harness.RunRequest, workers int, tr *tracer, parent int) ([]time.Duration, []sim.Result, []error) {
	lat := make([]time.Duration, len(reqs))
	res := make([]sim.Result, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				start := time.Now()
				id := tr.begin("harness.Suite.Run(fresh)", parent)
				res[i], errs[i] = suite.Run(r.Workload, r.Policy, r.Variant)
				tr.end(id)
				lat[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return lat, res, errs
}

func (f *fig11) round(r int, tr *tracer) (roundResult, error) {
	var out roundResult
	root := tr.begin("fig11.round", -1)
	defer tr.end(root)
	suite := harness.NewSuite(f.cfg)
	lat, results, errs := runPool(suite, f.runs, poolWorkers(), tr, root)

	byKey := map[runKey]sim.Result{}
	var last []keyedResult
	for i, req := range f.runs {
		k := runKey{req.Workload, req.Policy}
		out.attempted++
		if errs[i] != nil {
			fmt.Printf("FAIL %s: %v\n", k, errs[i])
			out.failed++
			continue
		}
		out.jobs = append(out.jobs, lat[i])
		out.freshInsts += results[i].Instructions
		if !f.hashes.check(k.String(), results[i].StateHash()) {
			out.failed++
		}
		byKey[k] = results[i]
		last = append(last, keyedResult{k, results[i]})
	}
	f.last = last
	for _, w := range harness.Workloads() {
		base, ok1 := byKey[runKey{w, harness.Uncompressed}]
		latte, ok2 := byKey[runKey{w, harness.LatteCC}]
		if ok1 && ok2 {
			out.pairs = append(out.pairs, [2]sim.Result{base, latte})
		}
	}

	// The rendered table must match the golden file byte for byte. The
	// reduced self-test batch covers too few workloads to render it.
	if !f.small {
		out.attempted++
		id := tr.begin("harness.Fig11.render", root)
		text, err := f.exp.Run(suite)
		tr.end(id)
		if section := fmt.Sprintf("== %s: %s ==\n%s\n", f.exp.ID, f.exp.Title, text); err != nil || section != f.golden {
			fmt.Printf("FAIL fig11 table differs from testdata/golden_tiny.txt (err=%v)\n", err)
			out.failed++
		}
	}
	tr.count("harness.fresh_sims", float64(suite.Simulations()))
	tr.count("harness.cache_hits", float64(suite.CacheHits()))
	tr.count("harness.store_hits", float64(suite.StoreHits()))
	return out, nil
}

func (f *fig11) probe() probeInput {
	return probeInput{
		cfg: f.cfg,
		keys: []runKey{
			{"FW", harness.Uncompressed}, {"FW", harness.LatteCC},
			{"SS", harness.Uncompressed}, {"SS", harness.LatteCC},
		},
		streams: []string{"FW", "SS"},
		results: f.last,
	}
}

func (f *fig11) close() {}
