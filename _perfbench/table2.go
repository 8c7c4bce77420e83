package main

import (
	"fmt"
	"time"

	"lattecc/internal/core"
	"lattecc/internal/harness"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/sim"
	"lattecc/internal/workload"
)

// runKey names one simulation of a workload's run set.
type runKey struct {
	workload string
	policy   harness.Policy
}

func (k runKey) String() string { return k.workload + "/" + string(k.policy) }

// Section IV-C3's EP length and EPs per period, as the harness wires
// them; the probes check direct runs against harness runs, so a drift
// here shows as a StateHash mismatch.
const (
	epLen        = 256
	epsPerPeriod = 10
)

// controllerFactory builds the per-SM controllers of the policies the
// benchmark simulates directly through sim.New.
func controllerFactory(p harness.Policy) (sim.ControllerFactory, error) {
	switch p {
	case harness.Uncompressed:
		return func(int) modes.Controller { return policy.NewStatic(modes.None, string(p), epLen, epsPerPeriod) }, nil
	case harness.StaticBDI:
		return func(int) modes.Controller { return policy.NewStatic(modes.LowLat, string(p), epLen, epsPerPeriod) }, nil
	case harness.LatteCC:
		return func(n int) modes.Controller { return core.New(core.DefaultConfig(n)) }, nil
	}
	return nil, fmt.Errorf("no direct controller for policy %s", p)
}

// simulate runs one fresh simulation through sim.New and Sim.Run. With
// a tracer it records both calls as spans and keeps a sample of the
// run's host cost and simulated counts.
func simulate(cfg sim.Config, k runKey, tr *tracer, parent int) (sim.Result, error) {
	w, err := workload.ByName(k.workload)
	if err != nil {
		return sim.Result{}, err
	}
	factory, err := controllerFactory(k.policy)
	if err != nil {
		return sim.Result{}, err
	}
	var alloc0 uint64
	if tr != nil {
		alloc0 = heapAllocs()
	}
	id := tr.begin("sim.New", parent)
	s := sim.New(cfg, w, factory)
	newTime := tr.end(id)
	id = tr.begin("sim.Run", parent)
	res := s.Run()
	runTime := tr.end(id)
	res.Policy = string(k.policy)
	if tr != nil {
		tr.addSim(simSample{
			policy:     res.Policy,
			newTime:    newTime,
			runTime:    runTime,
			allocBytes: heapAllocs() - alloc0,
			cycles:     res.Cycles,
			insts:      res.Instructions,
			l1Accesses: res.Cache.Accesses,
			mshrStalls: res.MSHRStallCycles,
			l2Accesses: res.Mem.L2Accesses,
			dramReads:  res.Mem.DRAMReads,
			eps:        sumEPs(res),
			switches:   res.Switches,
		})
	}
	return res, nil
}

func sumEPs(res sim.Result) uint64 {
	var n uint64
	for _, e := range res.ModeEPs {
		n += e
	}
	return n
}

// table2 is the table2-sim workload: the full Table II machine (15 SMs,
// 20M-instruction cap) running SS and FW under Uncompressed and LATTE-CC,
// one serial simulation at a time. The steady-state inner loop does
// nearly all the work; SS spends about half its host time in the
// compression path, which the Uncompressed runs bypass.
//
// A job here is one round: the four simulations that yield one
// speed-up and energy figure per workload. Single simulations would
// make a poor latency sample: an SS run takes about seven times as long
// as an FW run, so half the samples sit in each cluster and their
// median falls in the gap between, where it follows the fastest SS run
// and the slowest FW run of each seed.
type table2 struct {
	cfg    sim.Config
	order  []runKey
	hashes hashBook
	last   []keyedResult // the latest round's results, for the probes
}

var table2Runs = []runKey{
	{"SS", harness.Uncompressed}, {"SS", harness.LatteCC},
	{"FW", harness.Uncompressed}, {"FW", harness.LatteCC},
}

func setupTable2(opts options) (instance, error) {
	t := &table2{cfg: sim.DefaultConfig(), hashes: hashBook{}}
	if opts.small {
		t.cfg.MaxInstructions = 300_000
	}
	// The seed rotates the order of the runs; the inputs are the same
	// four runs. Rounds repeat back to back, so a rotation keeps every
	// run after the same predecessor (and its garbage) from seed to seed.
	k := int(uint64(opts.seed) % uint64(len(table2Runs)))
	t.order = append(append([]runKey(nil), table2Runs[k:]...), table2Runs[:k]...)

	// Warm-up of the same kind: every run of the set on the same machine
	// with a lower instruction cap, so codec tables, heap growth and the
	// scheduler settle before the first timed run. One warm-up run also
	// goes through the harness to check that the direct controllers
	// match the harness's wiring.
	warm := t.cfg
	warm.MaxInstructions = 500_000
	for _, k := range t.order {
		res, err := simulate(warm, k, nil, -1)
		if err != nil {
			return nil, err
		}
		if k == (runKey{"FW", harness.LatteCC}) {
			w, err := workload.ByName(k.workload)
			if err != nil {
				return nil, err
			}
			ref, err := harness.RunWorkload(warm, w, k.policy)
			if err != nil {
				return nil, err
			}
			if ref.StateHash() != res.StateHash() {
				return nil, fmt.Errorf("direct %s run disagrees with the harness: %#x vs %#x", k, res.StateHash(), ref.StateHash())
			}
		}
	}
	return t, nil
}

func (t *table2) round(r int, tr *tracer) (roundResult, error) {
	var out roundResult
	var last []keyedResult
	byKey := map[runKey]sim.Result{}
	root := tr.begin("table2.round", -1)
	defer tr.end(root)
	start := time.Now()
	for _, k := range t.order {
		res, err := simulate(t.cfg, k, tr, root)
		if err != nil {
			return out, err
		}
		out.attempted++
		out.freshInsts += res.Instructions
		if !t.hashes.check(k.String(), res.StateHash()) {
			out.failed++
		}
		byKey[k] = res
		last = append(last, keyedResult{k, res})
	}
	out.jobs = append(out.jobs, time.Since(start))
	t.last = last
	for _, w := range []string{"SS", "FW"} {
		out.pairs = append(out.pairs, [2]sim.Result{byKey[runKey{w, harness.Uncompressed}], byKey[runKey{w, harness.LatteCC}]})
	}
	return out, nil
}

func (t *table2) probe() probeInput {
	return probeInput{
		cfg:     t.cfg,
		keys:    []runKey{{"FW", harness.Uncompressed}, {"FW", harness.LatteCC}},
		streams: []string{"SS", "FW"},
		results: t.last,
	}
}

func (t *table2) close() {}

// hashBook remembers the first StateHash seen for each run and reports
// whether a later one matches it. Not safe for concurrent use.
type hashBook map[string]uint64

func (b hashBook) check(key string, h uint64) bool {
	if want, ok := b[key]; ok {
		if want != h {
			fmt.Printf("FAIL %s: StateHash %#016x differs from the earlier %#016x\n", key, h, want)
			return false
		}
		return true
	}
	b[key] = h
	return true
}
