package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"lattecc/internal/cache"
	"lattecc/internal/mem"
)

// FuzzSubmit reads a body through ReadSubmit and applies its config
// overrides. It must never panic, and any config Apply accepts must
// build its L1 and its memory system. The seed corpus under
// testdata/fuzz/FuzzSubmit holds TestValidation's bodies and the
// boundary overrides of unbuildableOverrides, so plain go test replays
// them.
func FuzzSubmit(f *testing.F) {
	base := tinyConfig()
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		_, req, err := ReadSubmit(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		cfg, err := req.Config.Apply(base)
		if err != nil {
			return
		}
		cache.New(cfg.Cache, nil) // New never calls its controller
		mem.New(cfg.Mem)
	})
}
