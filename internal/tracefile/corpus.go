// Trace-corpus registry: recorded traces promoted to first-class
// workloads. A corpus directory holds pairs of files per entry —
// <NAME>.lct (the LCT1 record stream) and <NAME>.json (a sidecar with
// the replay geometry, the data-region table needed to regenerate line
// bytes, and integrity metadata). LoadCorpus validates fail-closed: a
// truncated or bit-flipped trace, a record-count mismatch, or a
// malformed sidecar rejects the entry with an error rather than
// replaying a silently different workload — mirroring resultstore's
// checksum-then-decode discipline.
package tracefile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lattecc/internal/trace"
	"lattecc/internal/workload"
)

// corpusMeta is the sidecar JSON schema.
type corpusMeta struct {
	Name          string `json:"name"`
	Source        string `json:"source,omitempty"` // workload the trace was captured from
	Category      string `json:"category"`         // "C-Sens" or "C-InSens"
	Blocks        int    `json:"blocks"`
	WarpsPerBlock int    `json:"warpsPerBlock"`
	// ALUGapCap paces replay: the cycle gap between consecutive records of
	// a warp's chunk becomes one ALU instruction of that latency, capped
	// here (0 disables pacing entirely).
	ALUGapCap uint32         `json:"aluGapCap"`
	Records   uint64         `json:"records"`
	Checksum  string         `json:"checksum"` // fnv1a64:<16 hex> over the .lct bytes
	Regions   []corpusRegion `json:"regions"`
}

type corpusRegion struct {
	Start uint64 `json:"start"`
	Lines uint64 `json:"lines"`
	Style string `json:"style"`
	Seed  uint64 `json:"seed"`
	Dict  uint32 `json:"dict,omitempty"`
}

// maxALUGapCap bounds the pacing latency a sidecar may request; beyond
// this a corrupt field would turn replay into an idle-cycle marathon.
const maxALUGapCap = 4096

// CorpusEntry describes one corpus entry for sidecar generation
// (cmd/tracegen). Regions use the workload package's region table so the
// replayed lines carry the same bytes the capture compressed.
type CorpusEntry struct {
	Name          string
	Source        string
	Category      trace.Category
	Blocks        int
	WarpsPerBlock int
	ALUGapCap     uint32
	Regions       []workload.Region
}

// checksumOf renders the integrity line for a trace byte stream.
func checksumOf(traceBytes []byte) string {
	h := fnv.New64a()
	h.Write(traceBytes)
	return fmt.Sprintf("fnv1a64:%016x", h.Sum64())
}

// EncodeCorpusMeta renders the sidecar JSON for a corpus entry whose
// trace file holds traceBytes with the given record count.
func EncodeCorpusMeta(e CorpusEntry, traceBytes []byte, records uint64) ([]byte, error) {
	m := corpusMeta{
		Name: e.Name, Source: e.Source, Category: e.Category.String(),
		Blocks: e.Blocks, WarpsPerBlock: e.WarpsPerBlock,
		ALUGapCap: e.ALUGapCap, Records: records,
		Checksum: checksumOf(traceBytes),
	}
	for _, r := range e.Regions {
		name := workload.StyleName(r.Style)
		if name == "" {
			return nil, fmt.Errorf("tracefile: corpus %s: unknown value style %d", e.Name, r.Style)
		}
		m.Regions = append(m.Regions, corpusRegion{
			Start: r.Start, Lines: r.Lines, Style: name, Seed: r.Seed, Dict: r.Dict,
		})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("tracefile: corpus %s: %w", e.Name, err)
	}
	return append(out, '\n'), nil
}

// ReplayWorkload is a recorded trace packaged as a trace.Workload: the
// record stream is split into per-warp instruction slices at load time,
// so replay runs through the full simulator (SM pipelines, harness
// cache, result store, daemon) like any synthetic workload. Programs are
// read-only after construction, so one loaded workload can back many
// concurrent simulations.
type ReplayWorkload struct {
	name    string
	source  string
	cat     trace.Category
	blocks  int
	perWarp int
	regions []workload.Region
	warps   [][]trace.Inst
	records uint64
}

var _ trace.Workload = (*ReplayWorkload)(nil)

// Name implements trace.Workload.
func (w *ReplayWorkload) Name() string { return w.name }

// Source returns the workload the trace was captured from ("" if
// unrecorded).
func (w *ReplayWorkload) Source() string { return w.source }

// Records returns the number of trace records behind the workload.
func (w *ReplayWorkload) Records() uint64 { return w.records }

// Category implements trace.Workload.
func (w *ReplayWorkload) Category() trace.Category { return w.cat }

// Data implements trace.Workload.
func (w *ReplayWorkload) Data() trace.DataSource { return workload.NewData(w.regions) }

// Kernels implements trace.Workload: one kernel whose warp programs
// replay the per-warp record chunks.
func (w *ReplayWorkload) Kernels() []trace.Kernel {
	return []trace.Kernel{{
		Name:          w.name + "-replay",
		Blocks:        w.blocks,
		WarpsPerBlock: w.perWarp,
		Program: func(block, warp int) trace.Program {
			return trace.NewSliceProgram(w.warps[block*w.perWarp+warp])
		},
	}}
}

// parseCategory resolves the sidecar's category string.
func parseCategory(s string) (trace.Category, error) {
	switch s {
	case "C-Sens":
		return trace.CSens, nil
	case "C-InSens":
		return trace.CInSens, nil
	default:
		return 0, fmt.Errorf("unknown category %q (want C-Sens or C-InSens)", s)
	}
}

// LoadWorkload builds a ReplayWorkload from a trace file and its
// sidecar. Every validation failure is fatal for the entry (fail-closed).
func LoadWorkload(lctPath, metaPath string) (*ReplayWorkload, error) {
	metaBytes, err := os.ReadFile(metaPath)
	if err != nil {
		return nil, fmt.Errorf("tracefile: corpus sidecar: %w", err)
	}
	traceBytes, err := os.ReadFile(lctPath)
	if err != nil {
		return nil, fmt.Errorf("tracefile: corpus: %w", err)
	}
	w, err := LoadWorkloadBytes(traceBytes, metaBytes)
	if err != nil {
		return nil, err
	}
	stem := strings.TrimSuffix(filepath.Base(lctPath), ".lct")
	if w.Name() != stem {
		return nil, fmt.Errorf("tracefile: corpus %s: sidecar names %q, file is %q", lctPath, w.Name(), stem)
	}
	return w, nil
}

// LoadWorkloadBytes is LoadWorkload over in-memory trace and sidecar
// bytes (no filename-stem check) — the path tests and the oracle use to
// round-trip capture→replay without touching disk.
func LoadWorkloadBytes(traceBytes, metaBytes []byte) (*ReplayWorkload, error) {
	dec := json.NewDecoder(bytes.NewReader(metaBytes))
	dec.DisallowUnknownFields()
	var m corpusMeta
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("tracefile: corpus sidecar: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("tracefile: corpus sidecar: trailing data")
	}
	if m.Name == "" {
		return nil, fmt.Errorf("tracefile: corpus sidecar: missing name")
	}
	cat, err := parseCategory(m.Category)
	if err != nil {
		return nil, fmt.Errorf("tracefile: corpus %s: %w", m.Name, err)
	}
	if m.Blocks <= 0 || m.WarpsPerBlock <= 0 {
		return nil, fmt.Errorf("tracefile: corpus %s: need positive blocks and warpsPerBlock", m.Name)
	}
	if m.ALUGapCap > maxALUGapCap {
		return nil, fmt.Errorf("tracefile: corpus %s: aluGapCap %d exceeds %d", m.Name, m.ALUGapCap, maxALUGapCap)
	}
	if m.Records == 0 {
		return nil, fmt.Errorf("tracefile: corpus %s: zero records", m.Name)
	}
	if len(m.Regions) == 0 {
		return nil, fmt.Errorf("tracefile: corpus %s: no data regions", m.Name)
	}
	w := &ReplayWorkload{
		name: m.Name, source: m.Source, cat: cat,
		blocks: m.Blocks, perWarp: m.WarpsPerBlock,
	}
	for ri, rj := range m.Regions {
		style, ok := workload.ParseStyle(rj.Style)
		if !ok {
			return nil, fmt.Errorf("tracefile: corpus %s: region %d: unknown style %q", m.Name, ri, rj.Style)
		}
		if rj.Lines == 0 {
			return nil, fmt.Errorf("tracefile: corpus %s: region %d: zero lines", m.Name, ri)
		}
		w.regions = append(w.regions, workload.Region{
			Start: rj.Start, Lines: rj.Lines, Style: style, Seed: rj.Seed, Dict: rj.Dict,
		})
	}

	if got := checksumOf(traceBytes); got != m.Checksum {
		return nil, fmt.Errorf("tracefile: corpus %s: checksum mismatch (file %s, sidecar %s)", m.Name, got, m.Checksum)
	}
	r, err := NewReader(bytes.NewReader(traceBytes))
	if err != nil {
		return nil, err
	}
	if r.Workload() != m.Name {
		return nil, fmt.Errorf("tracefile: corpus %s: trace header names %q", m.Name, r.Workload())
	}
	recs := make([]Record, 0, m.Records)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if uint64(len(recs)) != m.Records {
		return nil, fmt.Errorf("tracefile: corpus %s: %d records, sidecar promises %d", m.Name, len(recs), m.Records)
	}
	nWarps := m.Blocks * m.WarpsPerBlock
	if len(recs) < nWarps {
		return nil, fmt.Errorf("tracefile: corpus %s: %d records cannot fill %d warps", m.Name, len(recs), nWarps)
	}
	w.records = m.Records
	w.warps = chunkRecords(recs, nWarps, m.ALUGapCap)
	return w, nil
}

// chunkRecords splits the record stream into nWarps contiguous chunks
// and converts each to an instruction slice: every record becomes one
// memory instruction, and the recorded cycle gap to the chunk's previous
// record becomes a pacing ALU instruction (capped at gapCap; 0 disables
// pacing). Contiguous chunks preserve the capture's access locality
// within each warp; timing stays advisory, as in structural Replay.
func chunkRecords(recs []Record, nWarps int, gapCap uint32) [][]trace.Inst {
	warps := make([][]trace.Inst, nWarps)
	chunk := (len(recs) + nWarps - 1) / nWarps
	for wi := 0; wi < nWarps; wi++ {
		lo := wi * chunk
		hi := lo + chunk
		if lo > len(recs) {
			lo = len(recs)
		}
		if hi > len(recs) {
			hi = len(recs)
		}
		insts := make([]trace.Inst, 0, (hi-lo)*2)
		for j := lo; j < hi; j++ {
			rec := recs[j]
			if gapCap > 0 && j > lo && rec.Cycle > recs[j-1].Cycle {
				gap := rec.Cycle - recs[j-1].Cycle
				if gap > uint64(gapCap) {
					gap = uint64(gapCap)
				}
				insts = append(insts, trace.Inst{Op: trace.OpALU, Lat: uint32(gap)})
			}
			op := trace.OpLoad
			if rec.Write {
				op = trace.OpStore
			}
			insts = append(insts, trace.Inst{Op: op, Addrs: []uint64{rec.Addr}})
		}
		warps[wi] = insts
	}
	return warps
}

// LoadCorpus loads every entry of a corpus directory, sorted by name.
// Any invalid entry — including an .lct without a sidecar or a sidecar
// without an .lct — fails the whole load: a corpus that silently dropped
// entries would change Names() ordering underneath the harness.
func LoadCorpus(dir string) ([]*ReplayWorkload, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracefile: corpus: %w", err)
	}
	var stems []string
	seen := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".lct"):
			stems = append(stems, strings.TrimSuffix(name, ".lct"))
		case strings.HasSuffix(name, ".json"):
			seen[strings.TrimSuffix(name, ".json")] = true
		}
	}
	sort.Strings(stems)
	var out []*ReplayWorkload
	for _, stem := range stems {
		w, err := LoadWorkload(filepath.Join(dir, stem+".lct"), filepath.Join(dir, stem+".json"))
		if err != nil {
			return nil, err
		}
		delete(seen, stem)
		out = append(out, w)
	}
	if len(seen) > 0 {
		orphans := make([]string, 0, len(seen))
		//lint:allow determinism keys are sorted before use
		for stem := range seen {
			orphans = append(orphans, stem)
		}
		sort.Strings(orphans)
		return nil, fmt.Errorf("tracefile: corpus: sidecar %s.json has no matching .lct", orphans[0])
	}
	return out, nil
}

// RegisterCorpus loads a corpus directory and registers every entry in
// the global workload registry (startup-only; see
// workload.RegisterExternal). Returns the registered names in order.
func RegisterCorpus(dir string) ([]string, error) {
	ws, err := LoadCorpus(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ws))
	for _, w := range ws {
		if err := workload.RegisterExternal(w); err != nil {
			return nil, err
		}
		names = append(names, w.Name())
	}
	return names, nil
}
