package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The service core latteccd and latteroute share: every serving
// decision the two daemons have in common is made here once.

// Gate is a daemon's admission fence. Submissions run under the read
// half of admit; Drain flips draining under the write half, so once it
// returns from the flip no submission can still be on its way into the
// daemon's queue or watcher set behind the drain.
type Gate struct {
	name     string // "server" or "router": prefixes refusals and drain errors
	admit    sync.RWMutex
	draining atomic.Bool
	done     chan struct{} // closed when draining starts
	refused  atomic.Uint64 // submissions answered 503 because draining
}

// NewGate returns an open gate.
func NewGate(name string) *Gate {
	return &Gate{name: name, done: make(chan struct{})}
}

// Admit wraps a submission handler: it runs h under the read half of
// the fence, or answers 503 "<name> is draining" and counts the refusal
// once the gate has closed.
func (g *Gate) Admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.admit.RLock()
		defer g.admit.RUnlock()
		if g.draining.Load() {
			g.refused.Add(1)
			WriteJSONError(w, http.StatusServiceUnavailable, g.name+" is draining")
			return
		}
		h(w, r)
	}
}

// Draining reports whether the gate has closed.
func (g *Gate) Draining() bool { return g.draining.Load() }

// Done is closed when the gate closes.
func (g *Gate) Done() <-chan struct{} { return g.done }

// Refused counts the submissions the closed gate turned away.
func (g *Gate) Refused() uint64 { return g.refused.Load() }

// Drain closes the gate and waits for wg — the daemon's in-flight work —
// or for ctx, in which case the drain is reported incomplete. Safe to
// call more than once.
func (g *Gate) Drain(ctx context.Context, wg *sync.WaitGroup) error {
	g.admit.Lock()
	if g.draining.CompareAndSwap(false, true) {
		close(g.done)
	}
	g.admit.Unlock()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%s: drain incomplete: %w", g.name, ctx.Err())
	}
}

// HandleProbes registers GET /healthz (always ok) and GET /readyz (503
// once the gate has closed).
func (g *Gate) HandleProbes(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if g.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
}

// Table is a daemon's job table: IDs minted as "<prefix>-%06d" from one
// counter, and the map from ID to job. J is the daemon's job pointer.
type Table[J any] struct {
	prefix string
	next   atomic.Uint64

	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	m map[string]J
}

// NewTable returns an empty table minting IDs under prefix.
func NewTable[J any](prefix string) *Table[J] {
	return &Table[J]{prefix: prefix, m: map[string]J{}}
}

// Mint returns a fresh job ID.
func (t *Table[J]) Mint() string { return fmt.Sprintf("%s-%06d", t.prefix, t.next.Add(1)) }

// Put files j under id.
func (t *Table[J]) Put(id string, j J) {
	t.mu.Lock()
	t.m[id] = j
	t.mu.Unlock()
}

// Lookup returns the job named by r's {id} path value, or answers 404
// and reports false.
func (t *Table[J]) Lookup(w http.ResponseWriter, r *http.Request) (J, bool) {
	id := r.PathValue("id")
	t.mu.Lock()
	j, ok := t.m[id]
	t.mu.Unlock()
	if !ok {
		WriteJSONError(w, http.StatusNotFound, "no such job")
	}
	return j, ok
}

// WriteJSON writes v as indented JSON, defaulting the Content-Type to
// application/json.
func WriteJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteJSONError answers code with a {"error": msg} JSON body.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// StartSSE answers 200 with the event-stream headers and flushes them,
// or answers 500 and reports false when w cannot stream.
func StartSSE(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSONError(w, http.StatusInternalServerError, "streaming unsupported")
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// WriteEvent writes one SSE frame whose data line is data as JSON (a
// marshal error becomes the quoted error text).
func WriteEvent(w io.Writer, typ string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, b)
}

// ReadSubmit reads a POST /v1/runs body (at most 1 MiB) and parses it
// with unknown fields rejected. It returns the raw bytes, for a router
// that forwards them, and the request with an inline run folded into
// Runs. The error text is the 400 answer.
func ReadSubmit(w http.ResponseWriter, r *http.Request) ([]byte, SubmitRequest, error) {
	var req SubmitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	}
	if err != nil {
		return nil, req, fmt.Errorf("bad request body: %v", err)
	}
	if req.Workload != "" || req.Policy != "" {
		if len(req.Runs) > 0 {
			return nil, req, errors.New("give either an inline workload/policy or a runs batch, not both")
		}
		req.Runs = []RunSpec{{Workload: req.Workload, Policy: req.Policy, Variant: req.Variant}}
	}
	if len(req.Runs) == 0 {
		return nil, req, errors.New("no runs submitted")
	}
	return body, req, nil
}

// WriteMetric writes one unlabelled Prometheus sample with its HELP and
// TYPE lines; kind is "counter" or "gauge".
func WriteMetric[V int | int64 | uint64](w io.Writer, kind, name, help string, v V) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
}

// Serve is a daemon's main loop: serve h on addr until SIGINT or
// SIGTERM, then run shutdown — the daemon's own drain — and the HTTP
// server's, both bounded by drain. It logs to stderr under name and
// returns the exit code: 0 after a clean drain, 1 when listening fails
// or the drain is incomplete.
func Serve(name, addr string, h http.Handler, drain time.Duration, shutdown func(context.Context) error) int {
	hs := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "%s: draining...\n", name)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	drainErr := shutdown(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "%s: http shutdown: %v\n", name, err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, drainErr)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: drained, bye\n", name)
	return 0
}
