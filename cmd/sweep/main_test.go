package main

import (
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
