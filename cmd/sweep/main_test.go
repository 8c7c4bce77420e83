package main

import (
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"lattecc/internal/modes"
	"lattecc/internal/policy"
	"lattecc/internal/sim"
	"lattecc/internal/workload"
)

// TestParseValuesRejectsUnbuildableMachines: a value below a parameter's
// minimum is refused with a one-line error before any simulation, and
// the minimum itself builds a simulator.
func TestParseValuesRejectsUnbuildableMachines(t *testing.T) {
	w, err := workload.ByName("FW")
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range params {
		below := strconv.Itoa(p.min - 1)
		if _, err := parseValues(name, "4,"+below); err == nil {
			t.Errorf("%s: value %s accepted", name, below)
		} else if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: multi-line error %q", name, err)
		}

		vals, err := parseValues(name, strconv.Itoa(p.min))
		if err != nil || len(vals) != 1 || vals[0] != p.min {
			t.Fatalf("%s: minimum %d: vals %v, err %v", name, p.min, vals, err)
		}
		cfg := sim.DefaultConfig()
		p.apply(&cfg, p.min)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s=%d: sim.New panicked: %v", name, p.min, r)
				}
			}()
			_ = sim.New(cfg, w, func(int) modes.Controller { return policy.NewStatic(modes.None, "Uncompressed", 1, 1) })
		}()
	}
	if _, err := parseValues("nope", "1"); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := parseValues("mshrs", "1,x"); err == nil {
		t.Error("non-integer value accepted")
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

// TestDecompIIZeroExits2: decomp-ii 0 is the 2 point under another
// name, so sweep refuses it as a usage error before simulating.
func TestDecompIIZeroExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SWEEP_MAIN_ARGS=-param decomp-ii -values 0,2 -workloads FW")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("sweep -param decomp-ii -values 0,2: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "needs values >= 1") {
		t.Errorf("output %q does not name the minimum", out)
	}
}
