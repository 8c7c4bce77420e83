package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"lattecc/internal/cache"
	"lattecc/internal/core"
	"lattecc/internal/harness"
	"lattecc/internal/mem"
)

// FuzzSubmit reads a body through ReadSubmit and admits its machine
// (SubmitRequest.Machine). It must never panic, and any machine Machine
// accepts must build its L1, its memory system, and the controller of
// every run whose policy places dedicated sets. The seed corpus under
// testdata/fuzz/FuzzSubmit holds TestValidation's bodies, the boundary
// overrides of unbuildableOverrides, and a 1 KiB L1 under LATTE-CC
// (refused) and Static-BDI (accepted), so plain go test replays them.
func FuzzSubmit(f *testing.F) {
	base := tinyConfig()
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		_, req, err := ReadSubmit(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		cfg, err := req.Machine(base)
		if err != nil {
			return
		}
		cache.New(cfg.Cache, nil) // New never calls its controller
		mem.New(cfg.Mem)
		for _, r := range req.Runs {
			switch harness.Policy(r.Policy) {
			case harness.LatteCC, harness.LatteBDIBPC, harness.AdaptiveHits, harness.AdaptiveCMP:
				core.New(core.DefaultConfig(cfg.Cache.NumSets()))
			}
		}
	})
}
