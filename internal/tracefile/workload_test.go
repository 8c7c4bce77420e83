package tracefile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lattecc/internal/core"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/trace"
	"lattecc/internal/workload"
)

// corpusFixture builds a small valid corpus entry in memory: a 120-record
// trace over two regions plus its sidecar.
func corpusFixture(t *testing.T, name string) (lct, meta []byte) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		sm := i % 2
		addr := uint64(i%48) * 128 // byte addresses within region 0
		if i%5 == 0 {
			addr = 1<<18 + uint64(i%32)*128 // region 1
		}
		w.Record(sm, uint64(i*3), addr, i%7 == 0)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	meta, err = EncodeCorpusMeta(CorpusEntry{
		Name: name, Source: "unit", Category: trace.CSens,
		Blocks: 4, WarpsPerBlock: 2, ALUGapCap: 8,
		Regions: []workload.Region{
			{Start: 0, Lines: 64, Style: workload.StyleStrideInt, Seed: 9},
			{Start: 1 << 11, Lines: 64, Style: workload.StyleRandom, Seed: 10},
		},
	}, buf.Bytes(), w.Count())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), meta
}

// mutateMeta decodes the sidecar, applies the mutation, and re-encodes.
func mutateMeta(t *testing.T, meta []byte, mutate func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(meta, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorpusLoadsValidEntry(t *testing.T) {
	lct, meta := corpusFixture(t, "UNIT")
	w, err := LoadWorkloadBytes(lct, meta)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "UNIT" || w.Source() != "unit" || w.Records() != 120 {
		t.Fatalf("loaded workload %s/%s with %d records", w.Name(), w.Source(), w.Records())
	}
	ks := w.Kernels()
	if len(ks) != 1 || ks[0].Blocks != 4 || ks[0].WarpsPerBlock != 2 {
		t.Fatalf("unexpected kernel geometry: %+v", ks[0])
	}
	ks[0].Validate()
	// Every record must reappear as exactly one memory instruction, in
	// capture order, partitioned across the 8 warp programs.
	total := 0
	for b := 0; b < ks[0].Blocks; b++ {
		for wi := 0; wi < ks[0].WarpsPerBlock; wi++ {
			p := ks[0].Program(b, wi)
			for {
				inst, ok := p.Next()
				if !ok {
					break
				}
				if inst.Op == trace.OpLoad || inst.Op == trace.OpStore {
					total++
				}
			}
		}
	}
	if total != 120 {
		t.Fatalf("replay programs carry %d memory ops, capture had 120", total)
	}
}

// TestCorpusTraceTruncationSweep truncates the trace at every byte
// offset: all must fail closed (the sidecar checksum covers the whole
// stream, so even record-boundary truncation — invisible to the LCT1
// reader — is caught) and none may panic.
func TestCorpusTraceTruncationSweep(t *testing.T) {
	lct, meta := corpusFixture(t, "UNIT")
	for cut := 0; cut < len(lct); cut++ {
		if _, err := LoadWorkloadBytes(lct[:cut], meta); err == nil {
			t.Fatalf("truncation at byte %d/%d loaded successfully", cut, len(lct))
		}
	}
}

// TestCorpusTraceBitflipSweep flips one bit in every byte of the trace:
// the checksum must catch each.
func TestCorpusTraceBitflipSweep(t *testing.T) {
	lct, meta := corpusFixture(t, "UNIT")
	for i := range lct {
		mut := append([]byte(nil), lct...)
		mut[i] ^= 1 << uint(i%8)
		if _, err := LoadWorkloadBytes(mut, meta); err == nil {
			t.Fatalf("bit flip at byte %d loaded successfully", i)
		}
	}
}

// TestCorpusSidecarRejections sweeps the sidecar's rejection surface.
func TestCorpusSidecarRejections(t *testing.T) {
	lct, meta := corpusFixture(t, "UNIT")
	cases := []struct {
		name   string
		mutate func(map[string]any)
		want   string
	}{
		{"unknown-field", func(m map[string]any) { m["surprise"] = 1 }, "unknown field"},
		{"missing-name", func(m map[string]any) { m["name"] = "" }, "missing name"},
		{"bad-category", func(m map[string]any) { m["category"] = "C-Maybe" }, "unknown category"},
		{"zero-blocks", func(m map[string]any) { m["blocks"] = 0 }, "positive blocks"},
		{"negative-warps", func(m map[string]any) { m["warpsPerBlock"] = -1 }, "positive blocks"},
		{"gapcap-over-max", func(m map[string]any) { m["aluGapCap"] = maxALUGapCap + 1 }, "exceeds"},
		{"zero-records", func(m map[string]any) { m["records"] = 0 }, "zero records"},
		{"records-mismatch", func(m map[string]any) { m["records"] = 121 }, "sidecar promises"},
		{"bad-checksum", func(m map[string]any) { m["checksum"] = "fnv1a64:0000000000000000" }, "checksum mismatch"},
		{"no-regions", func(m map[string]any) { m["regions"] = []any{} }, "no data regions"},
		{"unknown-style", func(m map[string]any) {
			m["regions"].([]any)[0].(map[string]any)["style"] = "prime-sieve"
		}, "unknown style"},
		{"zero-lines", func(m map[string]any) {
			m["regions"].([]any)[0].(map[string]any)["lines"] = 0
		}, "zero lines"},
		{"too-many-warps", func(m map[string]any) { m["blocks"] = 100; m["warpsPerBlock"] = 8 }, "cannot fill"},
	}
	for _, tc := range cases {
		mut := mutateMeta(t, meta, tc.mutate)
		_, err := LoadWorkloadBytes(lct, mut)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Trailing data after the JSON document.
	if _, err := LoadWorkloadBytes(lct, append(append([]byte(nil), meta...), []byte("{}")...)); err == nil {
		t.Error("trailing data accepted")
	}
	// A header/sidecar name disagreement (both individually valid).
	otherLct, _ := corpusFixture(t, "OTHER")
	fixed := mutateMeta(t, meta, func(m map[string]any) {
		m["checksum"] = checksumOf(otherLct)
	})
	if _, err := LoadWorkloadBytes(otherLct, fixed); err == nil || !strings.Contains(err.Error(), "trace header names") {
		t.Errorf("header-name mismatch not rejected: %v", err)
	}
}

// TestLoadCorpusDirectory covers the directory-level contract: stem
// pairing, name-vs-filename agreement, orphan detection, and whole-load
// failure on any bad entry.
func TestLoadCorpusDirectory(t *testing.T) {
	lct, meta := corpusFixture(t, "UNIT")
	write := func(dir, name string, b []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("valid", func(t *testing.T) {
		dir := t.TempDir()
		write(dir, "UNIT.lct", lct)
		write(dir, "UNIT.json", meta)
		ws, err := LoadCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != 1 || ws[0].Name() != "UNIT" {
			t.Fatalf("loaded %d entries", len(ws))
		}
	})
	t.Run("stem-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		write(dir, "ALIAS.lct", lct)
		write(dir, "ALIAS.json", meta)
		if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), "sidecar names") {
			t.Fatalf("filename/sidecar name mismatch not rejected: %v", err)
		}
	})
	t.Run("missing-sidecar", func(t *testing.T) {
		dir := t.TempDir()
		write(dir, "UNIT.lct", lct)
		if _, err := LoadCorpus(dir); err == nil {
			t.Fatal(".lct without sidecar accepted")
		}
	})
	t.Run("orphan-sidecar", func(t *testing.T) {
		dir := t.TempDir()
		write(dir, "UNIT.lct", lct)
		write(dir, "UNIT.json", meta)
		write(dir, "GHOST.json", meta)
		if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), "GHOST.json") {
			t.Fatalf("orphan sidecar not rejected: %v", err)
		}
	})
	t.Run("one-bad-entry-fails-all", func(t *testing.T) {
		dir := t.TempDir()
		write(dir, "UNIT.lct", lct)
		write(dir, "UNIT.json", meta)
		otherLct, otherMeta := corpusFixture(t, "ZBAD")
		write(dir, "ZBAD.lct", otherLct[:len(otherLct)-3])
		write(dir, "ZBAD.json", otherMeta)
		if _, err := LoadCorpus(dir); err == nil {
			t.Fatal("corpus with one corrupt entry loaded")
		}
	})
}

// TestCommittedCorpusReplayDeterminism drives the committed corpus
// entries end to end: each must load, run under the full adaptive
// controller, and produce a StateHash that is stable across repeated
// runs.
func TestCommittedCorpusReplayDeterminism(t *testing.T) {
	ws, err := LoadCorpus(filepath.Join("..", "..", "testdata", "traces"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("committed corpus is empty")
	}
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxInstructions = 30_000
	latte := func(n int) modes.Controller { return core.New(core.DefaultConfig(n)) }
	for _, w := range ws {
		first := sim.New(cfg, w, latte).Run().StateHash()
		if again := sim.New(cfg, w, latte).Run().StateHash(); again != first {
			t.Errorf("%s: repeated replay differs: %#x vs %#x", w.Name(), first, again)
		}
	}
}
