// Package harness orchestrates the paper's evaluation: it wires policies
// to simulator runs, caches results so the figures that share runs
// (Figures 11-14) simulate each (workload, policy) pair once, implements
// the Kernel-OPT oracle's measure-then-replay protocol, and renders every
// table and figure of the paper as text tables (package experiments
// functions on the Suite).
package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"lattecc/internal/compress"
	"lattecc/internal/core"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/sim"
	"lattecc/internal/trace"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// Policy names a compression-management policy.
type Policy string

// The policies evaluated in the paper.
const (
	Uncompressed Policy = "Uncompressed"
	StaticBDI    Policy = "Static-BDI"
	StaticSC     Policy = "Static-SC"
	StaticBPC    Policy = "Static-BPC"
	LatteCC      Policy = "LATTE-CC"
	LatteBDIBPC  Policy = "LATTE-CC-BDI-BPC"
	AdaptiveHits Policy = "Adaptive-Hit-Count"
	AdaptiveCMP  Policy = "Adaptive-CMP"
	KernelOpt    Policy = "Kernel-OPT"
)

// latteEPLen / lattePeriod are the Section IV-C3 parameters, shared with
// the static policies' code-book maintenance cadence.
const (
	latteEPLen  = 256
	lattePeriod = 10
)

// Variant adjusts a run for the motivation studies.
type Variant struct {
	// CapacityOnly grants compression's capacity benefit with zero
	// decompression latency (Figure 3's upper bound).
	CapacityOnly bool
	// LatencyOnly charges decompression latency without any capacity
	// benefit (Figure 4).
	LatencyOnly bool
	// ExtraHitLatency adds cycles to every L1 hit (Figure 1's sweep).
	ExtraHitLatency uint64
	// SampleSeries enables the over-time probes (Figures 5 and 16).
	SampleSeries bool
}

// key identifies a cached run.
type key struct {
	workload string
	policy   Policy
	variant  Variant
}

// StoreKey identifies one run result in a persistent Store. It is the
// in-memory cache key widened by the machine-config fingerprint
// (sim.Config.Fingerprint), so one store directory can safely hold
// results from many machines — and so a store entry computed by one
// daemon is addressable by any other daemon serving the same machine.
type StoreKey struct {
	Fingerprint uint64
	Workload    string
	Policy      Policy
	Variant     Variant
}

// Store is the optional persistence tier below the suite's in-memory
// single-flight cache (internal/resultstore implements it; the daemon
// layers cluster peers on top). Run consults it after a cache miss and
// writes every fresh simulation back through it. Implementations must
// be safe for concurrent use and must fail closed: Load returns ok only
// for a result it has verified (StateHash recomputed from the decoded
// bytes) — a corrupt or truncated entry is a miss, never a wrong
// result. Errors are not persisted: only successful simulations reach
// Save.
type Store interface {
	Load(k StoreKey) (sim.Result, bool)
	Save(k StoreKey, res sim.Result)
}

// entry is one single-flight cache slot: the first caller of a key
// installs the entry and simulates; everyone else blocks on done.
type entry struct {
	done chan struct{} // closed once res/err are valid
	res  sim.Result
	err  error
}

// Suite runs and caches simulations for one GPU configuration.
//
// Locking contract (machine-checked by lattelint's lock-contract rule
// via the //lint: annotations below): mu guards only the result map and
// the prefetch queue — never a running simulation. Run installs a
// placeholder entry under mu, releases mu, simulates, then closes the
// entry's done channel; concurrent callers of the same (workload,
// policy, variant) key block on done instead of re-simulating, so every
// key simulates exactly once no matter how many experiments request it
// concurrently (single-flight). Because mu is declared nocalls, the
// analyzer also proves no function call (and hence no simulation, no
// Reporter callback, no Store I/O) ever runs with mu held. Jobs,
// Reporter, Store and Slots are configuration: set them before the
// first Run/RunAll and leave them alone afterwards.
type Suite struct {
	cfg sim.Config

	// Jobs bounds how many simulations RunAll executes concurrently;
	// <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Reporter, when non-nil, receives one event per run drained by
	// RunAll (progress/ETA reporting). Implementations must be safe for
	// concurrent use; the suite never holds mu across a call.
	Reporter Reporter
	// Store, when non-nil, is the persistence tier consulted on a cache
	// miss and written on every fresh simulate-complete. Like Jobs and
	// Reporter it is configuration: set before the first Run. Store
	// calls happen with mu released (single-flight already serializes
	// per-key access), so a slow disk or peer fetch never blocks other
	// keys.
	Store Store
	// Slots, when non-nil, bounds how many simulations run at once: a
	// run holds one slot (a send) only around its leaf simulation, after
	// a memory and a store miss, and never while it waits on another
	// key, so Kernel-OPT's recursion into its statics runs at one slot.
	// Once a run has claimed its key the wait is not interruptible, like
	// the simulation it precedes. Suites may share one channel.
	Slots chan struct{}

	fp uint64 // cfg.Fingerprint(), precomputed for store keys

	// spares passes a finished leaf simulation's machine arrays to the
	// next leaf simulation of this suite or its children.
	spares *spares

	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	results map[key]*entry
	//lint:guards mu
	queue []RunRequest
	//lint:guards mu
	queued    map[key]bool
	sims      atomic.Uint64
	hits      atomic.Uint64
	storeHits atomic.Uint64
}

// NewSuite returns a Suite over the given configuration (typically
// sim.DefaultConfig(), the paper's Table II machine).
func NewSuite(cfg sim.Config) *Suite {
	return &Suite{
		cfg:     cfg,
		fp:      cfg.Fingerprint(),
		spares:  new(spares),
		results: make(map[key]*entry),
		queued:  make(map[key]bool),
	}
}

// child returns a fresh suite over cfg inheriting the parent's Jobs,
// Reporter, Store, Slots and spare buffers, for experiments that re-run
// subsets on modified machines (48KB L1, write-through, ablations).
func (s *Suite) child(cfg sim.Config) *Suite {
	c := NewSuite(cfg)
	c.Jobs = s.Jobs
	c.Reporter = s.Reporter
	c.Store = s.Store
	c.Slots = s.Slots
	c.spares = s.spares
	return c
}

// spares holds the machine arrays (sim.Buffers) of finished leaf
// simulations for the next leaf simulations of a suite and its children
// to build on. It keeps them only while one of those simulations is in
// flight: when the last returns, it drops them all, so an idle suite,
// such as a daemon's resident one, holds none. A simulation that panics
// returns none. mu is nocalls, so a simulation builds its arrays, or
// clears the ones it took, with mu released.
type spares struct {
	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	free []*sim.Buffers
	//lint:guards mu
	inFlight int
}

// take counts one more leaf simulation in flight and returns the
// buffers it builds on: a spare set, or nil for new ones. A nil
// receiver has none.
func (p *spares) take() *sim.Buffers {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inFlight++
	n := len(p.free)
	if n == 0 {
		return nil
	}
	b := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return b
}

// put ends a leaf simulation that take started, keeping its buffers b
// (nil after a panic) while another is in flight.
func (p *spares) put(b *sim.Buffers) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inFlight--
	switch {
	case p.inFlight == 0:
		p.free = nil
	case b != nil:
		p.free = append(p.free, b)
	}
}

// Fingerprint returns the machine-config fingerprint the suite keys
// persistent-store entries with (sim.Config.Fingerprint of its config).
func (s *Suite) Fingerprint() uint64 { return s.fp }

// Config returns the suite's base configuration.
func (s *Suite) Config() sim.Config { return s.cfg }

// Simulations returns how many Run calls produced a fresh result on
// this suite: every executed simulation, plus every Kernel-OPT run whose
// schedule names one mode for every kernel, which is served as a
// relabelled copy of that static run instead (see kernelOpt). Cache
// hits and single-flight waiters do not count.
func (s *Suite) Simulations() uint64 { return s.sims.Load() }

// CacheHits returns how many Run calls were served from the in-memory
// result cache instead of executing a simulation — completed results and
// single-flight joins of in-flight ones both count. Together with
// Simulations and StoreHits it gives a serving layer its full split:
// every Run call lands in exactly one of the three counters (memory
// hit, store hit, or fresh simulation).
func (s *Suite) CacheHits() uint64 { return s.hits.Load() }

// StoreHits returns how many Run calls were served from the persistent
// Store tier (validated disk or peer entries) instead of simulating.
// Always zero when no Store is configured.
func (s *Suite) StoreHits() uint64 { return s.storeHits.Load() }

// Policies lists every named policy the harness can run, in a stable
// order — the admission-validation surface for servers and CLIs.
func Policies() []Policy {
	return []Policy{
		Uncompressed, StaticBDI, StaticSC, StaticBPC,
		LatteCC, LatteBDIBPC, AdaptiveHits, AdaptiveCMP, KernelOpt,
	}
}

// CheckPolicy reports whether policy p can run on cfg, a machine
// cfg.Validate accepts. The adaptive policies need an L1 with a set for
// each of core's dedicated sampling sets; every other policy runs on any
// machine. An unknown name passes: admission refuses it on its own.
func CheckPolicy(cfg sim.Config, p Policy) error {
	switch p {
	case LatteCC, LatteBDIBPC, AdaptiveHits, AdaptiveCMP:
		if err := core.DefaultConfig(cfg.Cache.NumSets()).Validate(); err != nil {
			return fmt.Errorf("policy %s: %w", p, err)
		}
	}
	return nil
}

// factoryFor resolves policy p to its controller factory and installs
// the policy's HighCap codec override in cfg (Static-BPC and the BDI+BPC
// LATTE variant swap SC for BPC) — the one place a policy becomes
// simulator wiring, shared by simulations and trace replays.
func factoryFor(cfg *sim.Config, p Policy, schedule []modes.Mode) (sim.ControllerFactory, error) {
	if err := CheckPolicy(*cfg, p); err != nil {
		return nil, err
	}
	switch p {
	case Uncompressed:
		return func(int) modes.Controller {
			return policy.NewStatic(modes.None, string(Uncompressed), latteEPLen, lattePeriod)
		}, nil
	case StaticBDI:
		return func(int) modes.Controller {
			return policy.NewStatic(modes.LowLat, string(StaticBDI), latteEPLen, lattePeriod)
		}, nil
	case StaticSC:
		return func(int) modes.Controller {
			return policy.NewStatic(modes.HighCap, string(StaticSC), latteEPLen, lattePeriod)
		}, nil
	case StaticBPC:
		cfg.Cache.Codecs[modes.HighCap] = compress.NewBPC()
		return func(int) modes.Controller {
			return policy.NewStatic(modes.HighCap, string(StaticBPC), latteEPLen, lattePeriod)
		}, nil
	case LatteCC:
		return func(n int) modes.Controller { return core.New(core.DefaultConfig(n)) }, nil
	case LatteBDIBPC:
		cfg.Cache.Codecs[modes.HighCap] = compress.NewBPC()
		return func(n int) modes.Controller {
			c := core.DefaultConfig(n)
			c.DecompLatency[modes.HighCap] = uint64(compress.NewBPC().DecompLatency())
			return core.New(c)
		}, nil
	case AdaptiveHits:
		return func(n int) modes.Controller { return policy.NewAdaptiveHitCount(n) }, nil
	case AdaptiveCMP:
		return func(n int) modes.Controller { return policy.NewAdaptiveCMP(n) }, nil
	case KernelOpt:
		return func(int) modes.Controller {
			return policy.NewScheduled(string(KernelOpt), schedule, latteEPLen, lattePeriod)
		}, nil
	default:
		return nil, fmt.Errorf("harness: unknown policy %q", p)
	}
}

// Run simulates one (workload, policy, variant) combination, caching the
// result. Kernel-OPT internally requires the three static runs of the
// same variant; they are cached too. Run is safe for concurrent use:
// the first caller of a key simulates while later callers block until
// that result is ready (errors are cached alongside results — the
// failure modes here are deterministic, so retrying cannot help).
func (s *Suite) Run(workloadName string, p Policy, v Variant) (sim.Result, error) {
	res, _, err := s.run(workloadName, p, v, nil)
	return res, err
}

// run is Run, also reporting whether the in-memory cache served the
// call — exactly the calls CacheHits counts. wait, when non-nil, is
// told when the call, or a Kernel-OPT static it claims, starts (true)
// and stops (false) waiting for a slot.
func (s *Suite) run(workloadName string, p Policy, v Variant, wait func(bool)) (sim.Result, bool, error) {
	k := key{workload: workloadName, policy: p, variant: v}
	s.mu.Lock()
	if e, ok := s.results[k]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		<-e.done
		return e.res, true, e.err
	}
	e := &entry{done: make(chan struct{})}
	s.results[k] = e
	s.mu.Unlock()

	// Persistence tier: a validated store entry (local disk or a cluster
	// peer) replaces the simulation entirely — including Kernel-OPT's
	// static prerequisites, which only a fresh simulate needs.
	if st := s.Store; st != nil {
		sk := StoreKey{Fingerprint: s.fp, Workload: workloadName, Policy: p, Variant: v}
		if res, ok := st.Load(sk); ok {
			s.storeHits.Add(1)
			e.res = res
			close(e.done)
			return e.res, false, e.err
		}
	}

	e.res, e.err = s.simulate(workloadName, p, v, wait)
	if e.err == nil {
		s.sims.Add(1)
		if st := s.Store; st != nil {
			st.Save(StoreKey{Fingerprint: s.fp, Workload: workloadName, Policy: p, Variant: v}, e.res)
		}
	}
	// Deterministic failures stay cached, but a recovered panic is not
	// assumed deterministic (fault injection and invariant trips are
	// per-run conditions): drop the entry so a later Run retries instead
	// of replaying a stale crash. Waiters already holding e still see
	// this attempt's error.
	var pe *PanicError
	if errors.As(e.err, &pe) {
		s.mu.Lock()
		if s.results[k] == e {
			delete(s.results, k)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return e.res, false, e.err
}

// PanicError wraps a panic recovered from a simulation so one poisoned
// run (an injected fault, a tripped invariant, a codec bug) surfaces as
// a job failure instead of killing the whole daemon or test process.
type PanicError struct {
	Val   interface{}
	Stack []byte
}

// Error reports the panic value; the captured stack is for logs.
func (e *PanicError) Error() string { return fmt.Sprintf("simulation panicked: %v", e.Val) }

// recoverSim converts a panic on the simulation path into a *PanicError
// assigned to err. Use in a defer with named returns.
func recoverSim(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Val: r, Stack: debug.Stack()}
	}
}

// simulate executes one uncached run. It holds no locks and no slot:
// Kernel-OPT recurses into run for its three static prerequisites,
// which either join in-flight simulations or execute inline on this
// goroutine, each taking its own slot.
func (s *Suite) simulate(workloadName string, p Policy, v Variant, wait func(bool)) (res sim.Result, err error) {
	defer recoverSim(&err)
	w, err := workload.ByName(workloadName)
	if err != nil {
		return sim.Result{}, err
	}

	cfg := s.cfg
	cfg.Cache.CapacityOnly = v.CapacityOnly
	cfg.Cache.LatencyOnly = v.LatencyOnly
	cfg.Cache.ExtraHitLatency = v.ExtraHitLatency
	if v.SampleSeries {
		cfg.SampleEvery = 512
	}
	leaf := func(p Policy, schedule []modes.Mode) (sim.Result, error) {
		if s.Slots != nil {
			s.takeSlot(wait)
			defer func() { <-s.Slots }()
		}
		return simulateOn(cfg, w, p, schedule, s.spares)
	}
	if p == KernelOpt {
		return kernelOpt(func(st Policy) (sim.Result, error) {
			res, _, err := s.run(workloadName, st, v, wait)
			return res, err
		}, leaf)
	}
	return leaf(p, nil)
}

// takeSlot blocks until s.Slots has room and takes one slot, telling
// wait (when non-nil) if it had to wait.
func (s *Suite) takeSlot(wait func(bool)) {
	select {
	case s.Slots <- struct{}{}:
		return
	default:
	}
	if wait != nil {
		wait(true)
		defer wait(false)
	}
	s.Slots <- struct{}{}
}

// simulateOn runs w under p on cfg, uncached, on buffers from spares
// (nil builds on new ones) and returns them there; schedule is
// Kernel-OPT's per-kernel mode list (nil for every other policy).
func simulateOn(cfg sim.Config, w trace.Workload, p Policy, schedule []modes.Mode, spares *spares) (sim.Result, error) {
	factory, err := factoryFor(&cfg, p, schedule)
	if err != nil {
		return sim.Result{}, err
	}
	var done *sim.Buffers // stays nil if the simulation panics
	defer func() { spares.put(done) }()
	m := sim.NewOn(cfg, w, factory, spares.take())
	res := m.Run()
	done = m.Buffers()
	res.Policy = string(p)
	return res, nil
}

// kernelOpt runs Kernel-OPT, reading the three static runs through run.
// When every kernel picks the same mode, Kernel-OPT is that mode's
// static policy — policy.NewStatic is a one-mode policy.Scheduled — so
// the static run, copied and relabelled, is the result and nothing is
// simulated. A mixed schedule is simulated through leaf.
func kernelOpt(run func(Policy) (sim.Result, error), leaf func(Policy, []modes.Mode) (sim.Result, error)) (sim.Result, error) {
	schedule, same, err := oracleSchedule(run)
	if err != nil {
		return sim.Result{}, err
	}
	if same != nil {
		res := same.Clone()
		res.Policy = string(KernelOpt)
		return res, nil
	}
	return leaf(KernelOpt, schedule)
}

// MustRun is Run, panicking on error (tests, where the workload/policy
// names are compile-time constants).
func (s *Suite) MustRun(workloadName string, p Policy, v Variant) sim.Result {
	res, err := s.Run(workloadName, p, v)
	if err != nil {
		panic(err)
	}
	return res
}

// kernelOptSchedule is oracleSchedule over the suite's cached static
// runs of the workload under variant v.
func (s *Suite) kernelOptSchedule(workloadName string, v Variant) ([]modes.Mode, error) {
	schedule, _, err := oracleSchedule(func(p Policy) (sim.Result, error) { return s.Run(workloadName, p, v) })
	return schedule, err
}

// oracleStatics are the static policies Kernel-OPT chooses among, with
// the mode each applies.
var oracleStatics = []struct {
	p Policy
	m modes.Mode
}{
	{Uncompressed, modes.None},
	{StaticBDI, modes.LowLat},
	{StaticSC, modes.HighCap},
}

// oracleSchedule builds the Kernel-OPT per-kernel schedule: run the
// workload once per static mode through run, then pick, for every
// kernel, the mode with the fewest cycles (Section V-B). same is the
// static run whose mode every kernel picked, or nil when the schedule
// mixes modes.
func oracleSchedule(run func(Policy) (sim.Result, error)) (schedule []modes.Mode, same *sim.Result, err error) {
	var runs []sim.Result
	for _, st := range oracleStatics {
		r, err := run(st.p)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, r)
	}
	nk := len(runs[0].Kernels)
	schedule = make([]modes.Mode, 0, nk)
	for ki := 0; ki < nk; ki++ {
		best := -1
		bestCycles := ^uint64(0)
		for si := range oracleStatics {
			if ki >= len(runs[si].Kernels) {
				continue
			}
			if c := runs[si].Kernels[ki].Cycles; c < bestCycles {
				bestCycles = c
				best = si
			}
		}
		schedule = append(schedule, oracleStatics[best].m)
		if ki == 0 {
			same = &runs[best]
		} else if same != &runs[best] {
			same = nil
		}
	}
	return schedule, same, nil
}

// Speedup returns policy p's speedup over the uncompressed baseline for a
// workload (the baseline runs the plain variant).
func (s *Suite) Speedup(workloadName string, p Policy, v Variant) (float64, error) {
	return column{policy: p, variant: v}.value(s, workloadName)
}

// MissReduction returns the relative L1 miss reduction of policy p vs the
// baseline (positive = fewer misses).
func (s *Suite) MissReduction(workloadName string, p Policy) (float64, error) {
	return column{policy: p, metric: missReduction}.value(s, workloadName)
}

// RunWorkload simulates a custom workload under a policy on the given
// machine, uncached (custom workloads have no stable identity to key on).
// Kernel-OPT is supported: the three static runs execute first.
func RunWorkload(cfg sim.Config, w trace.Workload, p Policy) (res sim.Result, err error) {
	defer recoverSim(&err)
	leaf := func(p Policy, schedule []modes.Mode) (sim.Result, error) { return simulateOn(cfg, w, p, schedule, nil) }
	if p == KernelOpt {
		return kernelOpt(func(st Policy) (sim.Result, error) { return leaf(st, nil) }, leaf)
	}
	return leaf(p, nil)
}

// ReplayTrace replays a recorded L1 access trace through cfg's
// compressed cache alone under policy p, with the controllers and codec
// override a full simulation of p would use; the trace's workload
// supplies the fill data. Kernel-OPT is an error: its schedule comes
// from full simulations, which a trace cannot stand in for.
func ReplayTrace(r *tracefile.Reader, cfg sim.Config, p Policy) (rep tracefile.ReplayResult, err error) {
	defer recoverSim(&err)
	if p == KernelOpt {
		return tracefile.ReplayResult{}, fmt.Errorf("harness: %s needs full simulations and cannot replay a trace", p)
	}
	w, err := workload.ByName(r.Workload())
	if err != nil {
		return tracefile.ReplayResult{}, fmt.Errorf("harness: trace recorded from unknown workload: %w", err)
	}
	factory, err := factoryFor(&cfg, p, nil)
	if err != nil {
		return tracefile.ReplayResult{}, err
	}
	return tracefile.Replay(r, cfg.Cache, factory, w.Data(), string(p))
}

// Workloads lists all benchmark names in figure order.
func Workloads() []string { return workload.Names() }

// CSensNames lists the cache-sensitive benchmark names.
func CSensNames() []string {
	var out []string
	for _, w := range workload.CSens() {
		out = append(out, w.Name())
	}
	return out
}

// CInSensNames lists the cache-insensitive benchmark names.
func CInSensNames() []string {
	var out []string
	for _, w := range workload.CInSens() {
		out = append(out, w.Name())
	}
	return out
}

// Category returns a workload's category by name.
func Category(name string) (trace.Category, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return 0, err
	}
	return w.Category(), nil
}
