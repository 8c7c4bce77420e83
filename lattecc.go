// Package lattecc is a Go reproduction of "LATTE-CC: Latency Tolerance
// Aware Adaptive Cache Compression Management for Energy Efficient GPUs"
// (Arunkumar et al., HPCA 2018).
//
// It bundles a cycle-level GPU memory-system simulator (SMs, GTO warp
// schedulers, compressed L1 data caches, banked L2, DRAM), five real
// cache-line compression codecs (BDI, FPC, C-PACK+Z, BPC, SC), the
// LATTE-CC adaptive compression controller, the paper's baseline policies
// (static modes, Kernel-OPT oracle, Adaptive-Hit-Count, Adaptive-CMP), an
// event-based energy model, and a 22-benchmark synthetic workload suite
// recreating the paper's evaluation.
//
// This package is the public facade: it re-exports the pieces a user
// needs to run simulations, define custom workloads, use the codecs
// standalone, and regenerate the paper's tables and figures. The
// implementation lives under internal/.
//
// Quick start:
//
//	cfg := lattecc.DefaultConfig()
//	res, err := lattecc.Run(cfg, "SS", lattecc.LatteCC)
//	fmt.Printf("IPC %.2f, hit rate %.2f\n", res.IPC(), res.Cache.HitRate())
//
// See examples/ for runnable programs and cmd/experiments for the full
// paper reproduction.
package lattecc

import (
	"io"

	"lattecc/internal/compress"
	"lattecc/internal/energy"
	"lattecc/internal/harness"
	"lattecc/internal/sim"
	"lattecc/internal/trace"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// Config describes the simulated GPU (see sim.Config for all fields).
type Config = sim.Config

// Result is the outcome of one simulation run.
type Result = sim.Result

// Policy names a compression-management policy.
type Policy = harness.Policy

// Variant adjusts a run for the paper's motivation studies (capacity-only,
// latency-only, hit-latency sweeps, over-time sampling).
type Variant = harness.Variant

// Suite runs and caches simulations for one GPU configuration; the
// paper's experiments (see Experiments) render from it.
type Suite = harness.Suite

// The policies evaluated in the paper.
const (
	Uncompressed = harness.Uncompressed
	StaticBDI    = harness.StaticBDI
	StaticSC     = harness.StaticSC
	StaticBPC    = harness.StaticBPC
	LatteCC      = harness.LatteCC
	LatteBDIBPC  = harness.LatteBDIBPC
	AdaptiveHits = harness.AdaptiveHits
	AdaptiveCMP  = harness.AdaptiveCMP
	KernelOpt    = harness.KernelOpt
)

// DefaultConfig returns the paper's Table II machine: 15 SMs, 48 warps
// per SM, 2 GTO schedulers, 16KB/128B/4-way L1 with the compressed-cache
// organization, 768KB/12-bank L2, and the BDI/SC codec pair.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewSuite returns a result-caching simulation suite over cfg.
func NewSuite(cfg Config) *Suite { return harness.NewSuite(cfg) }

// Run simulates one benchmark under one policy on the given machine.
func Run(cfg Config, workloadName string, p Policy) (Result, error) {
	return NewSuite(cfg).Run(workloadName, p, Variant{})
}

// RunVariant is Run with a study variant.
func RunVariant(cfg Config, workloadName string, p Policy, v Variant) (Result, error) {
	return NewSuite(cfg).Run(workloadName, p, v)
}

// Workloads lists the benchmark abbreviations of the suite (Table III),
// cache-insensitive group first.
func Workloads() []string { return harness.Workloads() }

// WorkloadByName builds one benchmark by abbreviation.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Workload is a benchmark: kernels plus a deterministic data image.
// Implement it (or build a workload.Spec via the re-exported types below)
// to simulate your own kernels.
type Workload = trace.Workload

// Custom-workload building blocks.
type (
	// WorkloadSpec declares a synthetic workload: regions of valued data
	// plus kernels of phase-driven warp programs.
	WorkloadSpec = workload.Spec
	// KernelSpec shapes one kernel launch of a WorkloadSpec.
	KernelSpec = workload.KernelSpec
	// PhaseSpec is one access-pattern phase of a warp program.
	PhaseSpec = workload.Phase
	// Region is a range of lines sharing one data-value style.
	Region = workload.Region
	// ValueStyle selects a region's data-value generator.
	ValueStyle = workload.ValueStyle
)

// Phase kinds and value styles for custom workloads.
const (
	PhaseStream  = workload.PhaseStream
	PhaseReuse   = workload.PhaseReuse
	PhaseRandom  = workload.PhaseRandom
	PhaseCompute = workload.PhaseCompute
	PhaseStore   = workload.PhaseStore
	PhaseBarrier = workload.PhaseBarrier

	StyleZeroHeavy = workload.StyleZeroHeavy
	StyleSmallInt  = workload.StyleSmallInt
	StyleStrideInt = workload.StyleStrideInt
	StylePointer   = workload.StylePointer
	StyleDictFloat = workload.StyleDictFloat
	StyleExpFloat  = workload.StyleExpFloat
	StyleRandom    = workload.StyleRandom
)

// RunWorkload simulates a custom workload under a policy.
func RunWorkload(cfg Config, w Workload, p Policy) (Result, error) {
	return harness.RunWorkload(cfg, w, p)
}

// ParseWorkload decodes a JSON workload definition (see
// internal/workload's loader documentation for the schema), so new
// benchmarks can be defined without writing Go.
func ParseWorkload(data []byte) (*WorkloadSpec, error) { return workload.ParseSpec(data) }

// LoadWorkloadFile reads a JSON workload definition from a file.
func LoadWorkloadFile(path string) (*WorkloadSpec, error) { return workload.LoadSpecFile(path) }

// Codec compresses and decompresses 128-byte cache lines.
type Codec = compress.Codec

// Encoded is a compressed line with its accounting size.
type Encoded = compress.Encoded

// LineSize is the cache line size all codecs operate on.
const LineSize = compress.LineSize

// The five Table I codecs, usable standalone.
func NewBDI() Codec       { return compress.NewBDI() }
func NewFPC() Codec       { return compress.NewFPC() }
func NewCPACK() Codec     { return compress.NewCPACK() }
func NewBPC() Codec       { return compress.NewBPC() }
func NewSC() *compress.SC { return compress.NewSC() }

// Energy model re-exports.
type (
	// EnergyParams holds the per-event energies of the GPUWattch-style
	// model.
	EnergyParams = energy.Params
	// EnergyBreakdown is a per-component energy account.
	EnergyBreakdown = energy.Breakdown
)

// DefaultEnergyParams returns the calibrated energy model (codec energies
// from the paper's Section IV-C).
func DefaultEnergyParams() EnergyParams { return energy.DefaultParams() }

// EvaluateEnergy computes a run's energy breakdown.
func EvaluateEnergy(res Result, p EnergyParams) EnergyBreakdown {
	return energy.Evaluate(res, p)
}

// Experiments lists the paper's tables and figures; each regenerates its
// rows/series on a Suite. See cmd/experiments.
func Experiments() []harness.Experiment { return harness.Experiments() }

// Trace record/replay (package tracefile): record the L1 access stream of
// a full simulation once, then answer cache-policy questions by replaying
// it through the compressed cache alone — orders of magnitude faster.
type (
	// TraceWriter records L1 accesses; set it as Config.Trace.
	TraceWriter = tracefile.Writer
	// TraceReader iterates a recorded trace.
	TraceReader = tracefile.Reader
	// TraceRecord is one recorded L1 access.
	TraceRecord = tracefile.Record
	// ReplayResult aggregates a trace replay's cache statistics.
	ReplayResult = tracefile.ReplayResult
)

// NewTraceWriter starts a trace for the named workload on w.
func NewTraceWriter(w io.Writer, workloadName string) (*TraceWriter, error) {
	return tracefile.NewWriter(w, workloadName)
}

// NewTraceReader opens a recorded trace.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return tracefile.NewReader(r) }

// ReplayTrace replays a recorded trace through cfg's L1 alone under
// policy p, wired exactly as a full simulation of p would be. Kernel-OPT
// is not replayable: its schedule needs full simulations.
func ReplayTrace(r *TraceReader, cfg Config, p Policy) (ReplayResult, error) {
	return harness.ReplayTrace(r, cfg, p)
}

// RegisterWorkload adds a workload to the global registry so it shows up
// in Workloads(), Run, the experiment suite, and the daemon. Startup-only:
// call it before any concurrent use of the registry (see
// workload.RegisterExternal).
func RegisterWorkload(w Workload) error { return workload.RegisterExternal(w) }

// LoadTraceCorpus registers every trace-replay workload found in dir
// (pairs of <NAME>.lct + <NAME>.json, see tracefile.LoadCorpus). It
// returns the registered names in registration order. Startup-only, like
// RegisterWorkload.
func LoadTraceCorpus(dir string) ([]string, error) { return tracefile.RegisterCorpus(dir) }
