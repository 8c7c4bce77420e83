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

// Validate panics on inconsistent configurations.
func (c Config) Validate() {
	if c.NumSMs <= 0 || c.MaxWarpsPerSM <= 0 || c.MaxBlocksPerSM <= 0 ||
		c.SchedulersPerSM <= 0 || c.L1Ports <= 0 || c.MSHRs <= 0 {
		panic(fmt.Sprintf("sim: bad config %+v", c))
	}
	if c.Cache.LineSize != c.Mem.LineSize {
		panic("sim: L1 and memory line sizes differ")
	}
	if c.ToleranceWindow == 0 {
		panic("sim: zero tolerance window")
	}
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

// freshCodecs returns a new codec array matching cfg's, so each run gets
// independent SC state. Stateless codecs are shared safely but SC carries
// a VFT and code book per SM.
func (c Config) freshCodecs() [modes.NumModes]compress.Codec {
	var out [modes.NumModes]compress.Codec
	for m, codec := range c.Cache.Codecs {
		if codec == nil {
			continue
		}
		switch codec.(type) {
		case *compress.SC:
			out[m] = compress.NewSC()
		case *compress.BDI:
			out[m] = compress.NewBDI()
		case *compress.BPC:
			out[m] = compress.NewBPC()
		case *compress.FPC:
			out[m] = compress.NewFPC()
		case *compress.CPACK:
			out[m] = compress.NewCPACK()
		default:
			out[m] = codec
		}
	}
	return out
}
