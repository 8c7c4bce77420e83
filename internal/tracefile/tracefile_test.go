package tracefile

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/sim"
	"lattecc/internal/workload"
)

func TestRoundTripRecords(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "TESTWL")
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{SM: 0, Cycle: 10, Addr: 0x1000, Write: false},
		{SM: 1, Cycle: 5, Addr: 0x2000, Write: true},
		{SM: 0, Cycle: 12, Addr: 0x1080, Write: false},
		{SM: 0, Cycle: 12, Addr: 0x1100, Write: false}, // same-cycle delta 0
		{SM: 1, Cycle: 900, Addr: 0xFFFFFF80, Write: false},
	}
	for _, rec := range recs {
		w.Record(rec.SM, rec.Cycle, rec.Addr, rec.Write)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload() != "TESTWL" {
		t.Fatalf("workload = %q", r.Workload())
	}
	for i, want := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic must error")
	}
	if _, err := NewReader(strings.NewReader("LC")); err == nil {
		t.Fatal("short header must error")
	}
	// Truncated record after a valid header.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "X")
	w.Record(0, 1, 128, false)
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record must fail loudly, got %v", err)
	}
}

// recordedTrace runs a small simulation with tracing enabled.
func recordedTrace(t *testing.T, workloadName string) (*bytes.Buffer, sim.Result) {
	t.Helper()
	wl, err := workload.ByName(workloadName)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, workloadName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.Trace = tw
	res := sim.New(cfg, wl, func(int) modes.Controller {
		return policy.NewStatic(modes.None, "Uncompressed", 256, 10)
	}).Run()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() == 0 {
		t.Fatal("no records captured")
	}
	return &buf, res
}

func TestReplayMatchesSimulatedHitRate(t *testing.T) {
	buf, res := recordedTrace(t, "BO")
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := workload.ByName("BO")
	cacheCfg := sim.DefaultConfig().Cache
	rep, err := Replay(r, cacheCfg, func(int) modes.Controller {
		return policy.NewStatic(modes.None, "Uncompressed", 256, 10)
	}, wl.Data(), "Uncompressed")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "BO" {
		t.Fatalf("workload = %q", rep.Workload)
	}
	// Replay reproduces the same access stream through the same structure;
	// the access count matches exactly, and the hit count lands within 2%
	// (replay fills misses immediately — no MSHR in-flight window — so
	// secondary misses become hits).
	if rep.Cache.Accesses != res.Cache.Accesses {
		t.Fatalf("accesses %d vs simulated %d", rep.Cache.Accesses, res.Cache.Accesses)
	}
	simHR := float64(res.Cache.Hits) / float64(res.Cache.Accesses)
	repHR := float64(rep.Cache.Hits) / float64(rep.Cache.Accesses)
	if diff := repHR - simHR; diff < -0.02 || diff > 0.02 {
		t.Fatalf("replay hit rate %.4f vs simulated %.4f (diff %.4f)", repHR, simHR, diff)
	}
}

func TestReplayPolicyComparison(t *testing.T) {
	// Record once with the baseline, replay under Static-BDI: on the
	// stride-data FW workload, BDI replay must show more hits.
	buf, _ := recordedTrace(t, "FW")
	cacheCfg := sim.DefaultConfig().Cache
	wl, _ := workload.ByName("FW")

	replayWith := func(m modes.Mode, name string) ReplayResult {
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(r, cacheCfg, func(int) modes.Controller {
			return policy.NewStatic(m, name, 256, 10)
		}, wl.Data(), name)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := replayWith(modes.None, "Uncompressed")
	bdi := replayWith(modes.LowLat, "Static-BDI")
	if bdi.Cache.Hits <= base.Cache.Hits {
		t.Fatalf("BDI replay hits %d must exceed baseline %d on FW",
			bdi.Cache.Hits, base.Cache.Hits)
	}
	if bdi.Cache.InsertsByMode[modes.LowLat] == 0 {
		t.Fatal("BDI replay must insert compressed lines")
	}
	// The per-SM counters are summed field by field: bytes allocated
	// and decompressor occupancy reach the result too.
	if bdi.Cache.SubBlocksByMode[modes.LowLat] == 0 || bdi.Cache.DecompBusy == 0 {
		t.Fatalf("BDI replay dropped counters: sub-blocks %v, decomp busy %d",
			bdi.Cache.SubBlocksByMode, bdi.Cache.DecompBusy)
	}
}

func TestTraceFormatGolden(t *testing.T) {
	// Lock the on-disk byte format: traces written today must stay
	// readable by future versions.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "GL")
	w.Record(0, 3, 256, false)
	w.Record(1, 7, 128, true)
	w.Flush()
	want := []byte{
		'L', 'C', 'T', '1',
		2, 'G', 'L', // name
		0, 3, 0x80, 2, 0, // sm=0 delta=3 addr=256(varint 0x80 0x02) flags=0
		1, 7, 0x80, 1, 1, // sm=1 delta=7 addr=128 flags=1(write)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("format drifted:\n got %v\nwant %v", buf.Bytes(), want)
	}
}
