package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/server"
	"lattecc/internal/sim"
	"lattecc/internal/workload"
)

// knobBounds is each parameter's smallest and largest buildable value
// on the default machine; max 0 means the parameter is unbounded.
func knobBounds() map[string]struct{ min, max int } {
	m := sim.DefaultConfig()
	return map[string]struct{ min, max int }{
		"num_sms":              {1, sim.MaxSMs},
		"max_warps_per_sm":     {1, sim.MaxWarps},
		"l1_ports":             {1, sim.MaxL1Ports},
		"mshrs":                {1, sim.MaxMSHRs},
		"l1_size_bytes":        {m.Cache.LineSize * m.Cache.Ways, sim.MaxL1Bytes},
		"l2_size_bytes":        {m.Mem.LineSize * m.Mem.L2Ways * m.Mem.L2Banks, sim.MaxL2Bytes},
		"decomp_init_interval": {1, 0},
		"extra_hit_latency":    {0, 0},
	}
}

// TestParseValuesRejectsUnbuildableMachines: a value below a parameter's
// minimum or above its maximum is refused with a one-line error before
// any simulation, and the minimum and maximum themselves build a
// simulator.
func TestParseValuesRejectsUnbuildableMachines(t *testing.T) {
	w, err := workload.ByName("FW")
	if err != nil {
		t.Fatal(err)
	}
	bounds := knobBounds()
	if len(bounds) != len(params) {
		t.Fatalf("%d bounds for %d parameters", len(bounds), len(params))
	}
	for name, p := range params {
		b, ok := bounds[name]
		if !ok {
			t.Fatalf("%s: no bounds in this test", name)
		}
		refused, accepted := []int{b.min - 1}, []int{b.min}
		if b.max > 0 {
			refused, accepted = append(refused, b.max+1), append(accepted, b.max)
		}
		for _, v := range refused {
			list := strconv.Itoa(b.min) + "," + strconv.Itoa(v)
			if _, err := parseValues(name, list); err == nil {
				t.Errorf("%s: value %d accepted", name, v)
			} else if strings.Contains(err.Error(), "\n") {
				t.Errorf("%s: multi-line error %q", name, err)
			}
		}
		for _, v := range accepted {
			vals, err := parseValues(name, strconv.Itoa(v))
			if err != nil || len(vals) != 1 || vals[0] != v {
				t.Fatalf("%s: bound %d: vals %v, err %v", name, v, vals, err)
			}
			cfg := sim.DefaultConfig()
			p.apply(&cfg, v)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s=%d: sim.New panicked: %v", name, v, r)
					}
				}()
				_ = sim.New(cfg, w, func(int) modes.Controller { return policy.NewStatic(modes.None, "Uncompressed", 1, 1) })
			}()
		}
	}
	if _, err := parseValues("nope", "1"); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := parseValues("mshrs", "1,x"); err == nil {
		t.Error("non-integer value accepted")
	}
}

// TestParamsShareTheWireVocabulary: a sweep parameter the daemons'
// config overrides also take has the same name and unit there, and sets
// the same sim.Config field.
func TestParamsShareTheWireVocabulary(t *testing.T) {
	sweepOnly := map[string]bool{"decomp_init_interval": true, "extra_hit_latency": true}
	base := sim.DefaultConfig()
	for name, p := range params {
		v := knobBounds()[name].max
		var ov server.ConfigOverrides
		dec := json.NewDecoder(strings.NewReader(fmt.Sprintf("{%q: %d}", name, v)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ov); err != nil {
			if !sweepOnly[name] {
				t.Errorf("%s: the wire does not take it: %v", name, err)
			}
			continue
		}
		if sweepOnly[name] {
			t.Errorf("%s: the wire takes it too", name)
		}
		got, err := ov.Apply(base)
		if err != nil {
			t.Fatalf("%s=%d: %v", name, v, err)
		}
		want := base
		p.apply(&want, v)
		if got != want || got == base {
			t.Errorf("%s=%d: the wire and sweep set different fields", name, v)
		}
	}
}

// TestMain runs main itself when the test binary is re-executed with
// SWEEP_MAIN_ARGS set, so a test can check sweep's exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SWEEP_MAIN_ARGS"); ok {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDecompIIZeroExits2: decomp_init_interval 0 is the 2 point under
// another name, so sweep refuses it as a usage error before simulating.
func TestDecompIIZeroExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SWEEP_MAIN_ARGS=-param decomp_init_interval -values 0,2 -workloads FW")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("sweep -param decomp_init_interval -values 0,2: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "needs values >= 1") {
		t.Errorf("output %q does not name the minimum", out)
	}
}

// TestPolicyMisfitExits2: a 1 KiB L1 builds but cannot host LATTE-CC's
// dedicated sets, so sweep refuses the point before simulating.
func TestPolicyMisfitExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SWEEP_MAIN_ARGS=-param l1_size_bytes -values 16384,1024 -workloads FW -policy LATTE-CC")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("sweep -param l1_size_bytes -values 16384,1024: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "dedicated sets") {
		t.Errorf("output %q does not name the dedicated sets", out)
	}
}
