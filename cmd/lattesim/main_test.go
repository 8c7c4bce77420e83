package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"lattecc/internal/energy"
	"lattecc/internal/harness"
	"lattecc/internal/sim"
	"lattecc/internal/workload"
)

// TestMain runs main itself when the test binary is re-executed with
// LATTESIM_MAIN_ARGS set, so a test can check lattesim's output and exit
// status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("LATTESIM_MAIN_ARGS"); ok {
		os.Args = append([]string{"lattesim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as lattesim with args and returns
// its stdout, its stderr and its exit status.
func runMain(t *testing.T, args string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "LATTESIM_MAIN_ARGS="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out.Bytes(), errOut.Bytes(), exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), 0
}

// TestSpecRunsLikeABuiltin: -spec reports the run and its Uncompressed
// base exactly as harness.RunWorkload simulates them.
func TestSpecRunsLikeABuiltin(t *testing.T) {
	const path = "../../examples/workloads/stencil3d.json"
	stdout, stderr, code := runMain(t, "-spec "+path+" -policy Static-BDI -json")
	if code != 0 {
		t.Fatalf("exit status %d\n%s", code, stderr)
	}
	var got struct {
		Cycles, Instructions uint64
		Speedup              float64 `json:"speedup"`
		NormalizedEnergy     float64 `json:"normalizedEnergy"`
	}
	if err := json.Unmarshal(stdout, &got); err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}

	spec, err := workload.LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunWorkload(sim.DefaultConfig(), spec, harness.StaticBDI)
	if err != nil {
		t.Fatal(err)
	}
	base, err := harness.RunWorkload(sim.DefaultConfig(), spec, harness.Uncompressed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != res.Cycles || got.Instructions != res.Instructions {
		t.Errorf("run: %d cycles, %d instructions; RunWorkload: %d, %d",
			got.Cycles, got.Instructions, res.Cycles, res.Instructions)
	}
	// The base reaches the output only through these two ratios.
	params := energy.DefaultParams()
	if want := float64(base.Cycles) / float64(res.Cycles); got.Speedup != want {
		t.Errorf("speedup %v, want %v from RunWorkload's base", got.Speedup, want)
	}
	if want := energy.Normalized(energy.Evaluate(res, params), energy.Evaluate(base, params)); got.NormalizedEnergy != want {
		t.Errorf("normalized energy %v, want %v from RunWorkload's base", got.NormalizedEnergy, want)
	}
}

// TestUnbuildableMachineExits2: a machine flag that sim.Config.Validate
// refuses, or an L1 too small for the policy's dedicated sets
// (harness.CheckPolicy), is a usage error, reported in one line before
// any run.
func TestUnbuildableMachineExits2(t *testing.T) {
	for _, args := range []string{"-sms -1", "-l1 -1", "-sms 257", "-l1 1025",
		"-l1 1 -policy LATTE-CC", "-l1 5 -policy LATTE-CC-BDI-BPC",
		"-l1 1 -policy Adaptive-Hit-Count", "-l1 1 -policy Adaptive-CMP"} {
		stdout, stderr, code := runMain(t, "-workload FW "+args)
		if code != 2 {
			t.Errorf("%s: exit status %d, want 2\n%s%s", args, code, stdout, stderr)
		}
		if msg := strings.TrimSpace(string(stderr)); msg == "" || strings.Contains(msg, "\n") {
			t.Errorf("%s: want a one-line message, got %q", args, msg)
		}
	}
	// The same 2-set L1 runs every policy without dedicated sets.
	for _, p := range []string{"Static-BDI", "Kernel-OPT"} {
		if _, stderr, code := runMain(t, "-workload BO -l1 1 -policy "+p); code != 0 {
			t.Errorf("%s on a 1 KiB L1: exit status %d\n%s", p, code, stderr)
		}
	}
}
