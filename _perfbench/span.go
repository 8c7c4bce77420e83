package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans and counters in memory until the run writes them
// out. A nil *tracer records nothing, so untraced rounds pay only a nil
// check per call site. Safe for concurrent use.
type tracer struct {
	origin time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
	sims     []simSample
}

// simSample is one direct sim.New + Sim.Run call.
type simSample struct {
	policy     string
	newTime    time.Duration
	runTime    time.Duration
	allocBytes uint64
	cycles     uint64
	insts      uint64
	l1Accesses uint64
	mshrStalls uint64
	l2Accesses uint64
	dramReads  uint64
	eps        uint64
	switches   uint64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counters: map[string]float64{}}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	start := us(time.Since(t.origin))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := us(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	d := time.Duration((now - t.spans[id].Start) * float64(time.Microsecond))
	t.mu.Unlock()
	return d
}

// durations returns the durations of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration((s.End-s.Start)*float64(time.Microsecond)))
		}
	}
	return out
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

func (t *tracer) addSim(s simSample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sims = append(t.sims, s)
	t.mu.Unlock()
}

// write saves every span and counter as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	doc := struct {
		Spans    []span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{t.spans, t.counters}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
