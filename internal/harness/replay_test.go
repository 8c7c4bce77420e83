package harness

import (
	"bytes"
	"reflect"
	"testing"

	"lattecc/internal/core"
	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

// TestReplayTraceMatchesHandWiredReplay pins ReplayTrace to a replay
// wired by hand: the static policies at the paper's EP length and
// period, LATTE-CC at its default configuration.
func TestReplayTraceMatchesHandWiredReplay(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxInstructions = 20_000
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, "BO")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = tw
	w, err := workload.ByName("BO")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(cfg, w, Uncompressed); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	reader := func() *tracefile.Reader {
		r, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	static := func(m modes.Mode, p Policy) func(int) modes.Controller {
		return func(int) modes.Controller { return policy.NewStatic(m, string(p), 256, 10) }
	}
	cases := []struct {
		p       Policy
		factory func(int) modes.Controller
	}{
		{Uncompressed, static(modes.None, Uncompressed)},
		{StaticBDI, static(modes.LowLat, StaticBDI)},
		{StaticSC, static(modes.HighCap, StaticSC)},
		{LatteCC, func(n int) modes.Controller { return core.New(core.DefaultConfig(n)) }},
	}
	for _, c := range cases {
		got, err := ReplayTrace(reader(), cfg, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		want, err := tracefile.Replay(reader(), cfg.Cache, c.factory, w.Data(), string(c.p))
		if err != nil {
			t.Fatalf("%s: hand-wired replay: %v", c.p, err)
		}
		if got.Records == 0 {
			t.Fatalf("%s: replayed no records", c.p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ReplayTrace = %+v, hand-wired replay = %+v", c.p, got, want)
		}
	}
	if _, err := ReplayTrace(reader(), cfg, KernelOpt); err == nil {
		t.Error("Kernel-OPT replay must fail: its schedule needs full simulations")
	}
	bad := cfg
	bad.Cache.Ways = 0
	if _, err := ReplayTrace(reader(), bad, LatteCC); err == nil {
		t.Error("a replay on a zero-way cache must fail with an error, not a panic")
	}
}
