package sim

import (
	"fmt"

	"lattecc/internal/cache"
	"lattecc/internal/compress"
	"lattecc/internal/invariant"
	"lattecc/internal/mem"
	"lattecc/internal/modes"
)

// Config describes the simulated GPU (Table II defaults via DefaultConfig).
type Config struct {
	NumSMs int // 15
	// Scheduler selects the warp scheduling policy: SchedGTO (default,
	// greedy-then-oldest, Table II) or SchedRR (round-robin, the paper's
	// Section III-B2 alternative where latency tolerance degenerates to
	// the ready-warp count).
	Scheduler       SchedulerKind
	MaxWarpsPerSM   int // 48
	MaxBlocksPerSM  int // 8
	SchedulersPerSM int // 2
	WarpSize        int // 32 threads

	// L1Ports is the number of L1 transactions an SM can start per cycle
	// (the load-store-unit bandwidth); memory-divergent warps serialize
	// through it.
	L1Ports int
	// WriteThroughL1 switches stores from the paper's write-avoid policy
	// (bypass L1 entirely, Section IV-C3) to write-through: write hits
	// update the cached line, which forces compressed lines to expand
	// and can evict neighbours. The paper reports the choice has
	// negligible performance impact; the "writepolicy" experiment
	// verifies that here.
	WriteThroughL1 bool
	// MSHRs is the number of outstanding L1 misses per SM.
	MSHRs int

	Cache cache.Config
	Mem   mem.Config

	// ToleranceWindow is the cycle window over which Equation 4's terms
	// are averaged before feeding the controller.
	ToleranceWindow uint64
	// ToleranceCap bounds the tolerance estimate (cycles); a pipeline
	// cannot hide more latency than its schedulers can cover.
	ToleranceCap float64

	// MaxInstructions ends the run after this many warp instructions
	// (the paper simulates 1B instructions or completion).
	MaxInstructions uint64
	// MaxCycles is a deadlock guard.
	MaxCycles uint64

	// FlushL1AtKernelBoundary invalidates L1 contents between kernels.
	FlushL1AtKernelBoundary bool

	// SampleEvery controls the over-time probes (Figures 5 and 16): every
	// SampleEvery cycles SM0's tolerance and effective capacity are
	// sampled into the result series. 0 disables sampling.
	SampleEvery uint64

	// Trace, when non-nil, receives every L1 access (package tracefile's
	// Writer implements it) for offline trace-driven replay.
	Trace AccessRecorder
}

// AccessRecorder receives the simulator's L1 access stream.
type AccessRecorder interface {
	Record(sm int, cycle uint64, addr uint64, write bool)
}

// DefaultConfig returns the Table II machine with the given codecs wired
// into the L1 (LowLat=BDI, HighCap=SC unless overridden by the caller).
func DefaultConfig() Config {
	var codecs [modes.NumModes]compress.Codec
	codecs[modes.LowLat] = compress.NewBDI()
	codecs[modes.HighCap] = compress.NewSC()
	return Config{
		NumSMs:          15,
		MaxWarpsPerSM:   48,
		MaxBlocksPerSM:  8,
		SchedulersPerSM: 2,
		WarpSize:        32,
		L1Ports:         2,
		MSHRs:           32,
		Cache: cache.Config{
			SizeBytes:  16 * 1024,
			LineSize:   128,
			Ways:       4,
			HitLatency: 4,
			Codecs:     codecs,
		},
		Mem:                     mem.DefaultConfig(),
		ToleranceWindow:         256,
		ToleranceCap:            256,
		MaxInstructions:         20_000_000,
		MaxCycles:               50_000_000,
		FlushL1AtKernelBoundary: true,
		SampleEvery:             0,
	}
}

// ScaledConfig is DefaultConfig shrunk the way the CLIs' -quick and
// -tiny flags shrink it: either drops the machine to 2 SMs, and tiny
// also caps every run at 120k warp instructions (the golden-gate
// machine: seconds per run, bit-exact across runs and machines, numbers
// meaningless at this scale). experiments, latteccd and latteroute all
// build their machine here, because the daemons' StateHashes match the
// CLI's golden runs only while the three agree.
func ScaledConfig(quick, tiny bool) Config {
	cfg := DefaultConfig()
	if quick || tiny {
		cfg.NumSMs = 2
	}
	if tiny {
		cfg.MaxInstructions = 120_000
	}
	return cfg
}

// Bounds on the knobs that size sim.New's allocations: room for Table II
// and the modern machines Accel-Sim models, no more (DESIGN.md §9).
const (
	MaxSMs     = 256
	MaxWarps   = 1024 // per SM; also bounds MaxBlocksPerSM and SchedulersPerSM
	MaxL1Ports = 64
	MaxMSHRs   = 4096
	MaxL1Bytes = 1 << 20
	MaxL2Bytes = 128 << 20
)

// Validate is the one buildability rule: the bounds above, the L1 and
// memory checks, and those that span them. Every front end asks it.
func (c Config) Validate() error {
	for _, k := range []struct {
		name   string
		v, max int
	}{
		{"NumSMs", c.NumSMs, MaxSMs},
		{"MaxWarpsPerSM", c.MaxWarpsPerSM, MaxWarps},
		{"MaxBlocksPerSM", c.MaxBlocksPerSM, MaxWarps},
		{"SchedulersPerSM", c.SchedulersPerSM, MaxWarps},
		{"L1Ports", c.L1Ports, MaxL1Ports},
		{"MSHRs", c.MSHRs, MaxMSHRs},
		{"Cache.SizeBytes", c.Cache.SizeBytes, MaxL1Bytes},
		{"Mem.L2SizeBytes", c.Mem.L2SizeBytes, MaxL2Bytes},
	} {
		if k.v < 1 || k.v > k.max {
			return fmt.Errorf("sim: %s %d is outside [1, %d]", k.name, k.v, k.max)
		}
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	switch {
	case c.Cache.LineSize != c.Mem.LineSize:
		return fmt.Errorf("sim: L1 line size %d differs from memory's %d", c.Cache.LineSize, c.Mem.LineSize)
	case c.ToleranceWindow == 0:
		return fmt.Errorf("sim: zero tolerance window")
	case c.MaxInstructions == 0 || c.MaxCycles == 0:
		return fmt.Errorf("sim: MaxInstructions and MaxCycles must be positive")
	}
	return nil
}

// Fingerprint folds the scalar machine parameters of the config into one
// key: every run that resolves to the same machine shares the same
// fingerprint. It keys resident daemon suites, fingerprint-affinity
// routing in the cluster, and persistent result-store entries — the
// three layers must agree on the key, which is why the fold lives here.
// Codec wiring and trace hooks are runtime wiring, deliberately not part
// of the key.
func (c Config) Fingerprint() uint64 {
	h := invariant.NewHash()
	h.Int(int64(c.NumSMs))
	h.Byte(byte(c.Scheduler))
	h.Int(int64(c.MaxWarpsPerSM))
	h.Int(int64(c.MaxBlocksPerSM))
	h.Int(int64(c.SchedulersPerSM))
	h.Int(int64(c.WarpSize))
	h.Int(int64(c.L1Ports))
	if c.WriteThroughL1 {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
	h.Int(int64(c.MSHRs))
	h.Int(int64(c.Cache.SizeBytes))
	h.Int(int64(c.Cache.LineSize))
	h.Int(int64(c.Cache.Ways))
	h.Uint64(c.Cache.HitLatency)
	h.Uint64(c.Cache.ExtraHitLatency)
	h.Uint64(c.Cache.DecompInitInterval)
	h.Int(int64(c.Cache.DecompBufferEntries))
	h.Int(int64(c.Mem.LineSize))
	h.Int(int64(c.Mem.L2SizeBytes))
	h.Int(int64(c.Mem.L2Ways))
	h.Int(int64(c.Mem.L2Banks))
	h.Uint64(c.Mem.L2Latency)
	h.Uint64(c.Mem.L2Service)
	h.Int(int64(c.Mem.DRAMChannels))
	h.Uint64(c.Mem.DRAMLatency)
	h.Uint64(c.Mem.DRAMService)
	h.Uint64(c.ToleranceWindow)
	h.Float64(c.ToleranceCap)
	h.Uint64(c.MaxInstructions)
	h.Uint64(c.MaxCycles)
	if c.FlushL1AtKernelBoundary {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
	h.Uint64(c.SampleEvery)
	// Folded only when set, each under its own tag, so a machine with
	// all three off keeps the fingerprint primed result stores and the
	// cluster's affinity placement already key it by.
	for i, on := range []bool{c.Cache.UnboundedDecompressor, c.Cache.CapacityOnly, c.Cache.LatencyOnly} {
		if on {
			h.Byte(byte(1 + i))
		}
	}
	return h.Sum()
}

// SchedulerKind selects the warp scheduling policy.
type SchedulerKind uint8

const (
	// SchedGTO is greedy-then-oldest: stay on the current warp until it
	// stalls, then pick the oldest ready warp (Table II's scheduler).
	SchedGTO SchedulerKind = iota
	// SchedRR is loose round-robin: one instruction per ready warp in
	// turn.
	SchedRR
)

// ControllerFactory builds one compression controller per SM. numSets is
// the SM's L1 set count.
type ControllerFactory func(numSets int) modes.Controller
