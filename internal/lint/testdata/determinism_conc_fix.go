// Package fixture exercises the concurrency half of the determinism
// rule: below the determinism boundary no package may import sync or
// spawn goroutines, so a run's result is a pure function of (config,
// seed, trace). The clock read at the bottom is banned there too.
package fixture

import (
	"sync"
	"time"
)

type bank struct {
	mu   sync.Mutex
	hits uint64
}

// tick fans a lookup out to a goroutine. The lifecycle is perfectly
// bounded (wg.Done/Wait), so goroutine-hygiene is satisfied — the
// determinism finding is about WHERE the concurrency lives, not how
// well it shuts down.
func (b *bank) tick() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.mu.Lock()
		b.hits++
		b.mu.Unlock()
	}()
	wg.Wait()
}

// stamp reads the wall clock: banned in every cycle-level package.
func stamp() int64 { return time.Now().UnixNano() }
