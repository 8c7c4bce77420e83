package sim

import (
	"fmt"
	"testing"

	"lattecc/internal/trace"
)

// kernelsWL is a test workload over an explicit kernel list
// (testWorkload generates a single kernel from its parameters).
type kernelsWL struct {
	name    string
	kernels []trace.Kernel
}

func (w kernelsWL) Name() string            { return w.name }
func (kernelsWL) Category() trace.Category  { return trace.CSens }
func (w kernelsWL) Kernels() []trace.Kernel { return w.kernels }
func (kernelsWL) Data() trace.DataSource    { return testData{} }

// TestRunPanicPropagates: a panic raised while an SM ticks (here by a
// poisoned program) must surface on the Run caller with its own value,
// so the harness's recover wrapper sees the program's failure rather
// than a wrapped or swallowed one.
func TestRunPanicPropagates(t *testing.T) {
	poison := trace.Kernel{
		Name:          "poison",
		Blocks:        4,
		WarpsPerBlock: 1,
		Program: func(block, warp int) trace.Program {
			n := 0
			return trace.FuncProgram(func() (trace.Inst, bool) {
				n++
				if n > 3 && block == 2 {
					//lint:allow panic-audit test fixture: deliberate program panic
					panic(fmt.Sprintf("poisoned program on block %d", block))
				}
				return trace.Inst{Op: trace.OpALU, Lat: 1}, true
			})
		},
	}
	w := kernelsWL{name: "poison", kernels: []trace.Kernel{poison}}
	cfg := smallConfig()
	cfg.NumSMs = 4
	got := func() (r interface{}) {
		defer func() { r = recover() }()
		New(cfg, w, baselineFactory).Run()
		return nil
	}()
	s, ok := got.(string)
	if !ok || s != "poisoned program on block 2" {
		t.Errorf("recovered %v, want the poisoned-program panic", got)
	}
}
