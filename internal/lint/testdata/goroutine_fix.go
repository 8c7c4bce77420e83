// Fixture for the goroutine-hygiene rule: bounded worker shapes that
// must pass (WaitGroup + ctx.Done select, channel-range drainer), the
// leaks that must not (an unbounded literal, an unbounded method that
// shares the drainer's name, an unresolvable target), and a dropped
// context.CancelFunc.
package fixture

import (
	"context"
	"sync"
)

type pool struct {
	wg   sync.WaitGroup
	jobs chan int
}

// start spawns two bounded goroutines; no findings.
func (p *pool) start(ctx context.Context) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case j := <-p.jobs:
				_ = j
			}
		}
	}()
	go p.drain()
}

// drain receives until the channel closes: a bounded lifecycle.
func (p *pool) drain() {
	for range p.jobs {
	}
}

// leak spins forever with no stop signal.
func (p *pool) leak() {
	go func() { // want: no bounded lifecycle
		for {
		}
	}()
}

// spinner shares pool's drain method name, but its drain has no stop
// signal: the target resolves by method, not by name.
type spinner struct{}

func (spinner) drain() {
	for {
	}
}

func spin(s spinner) {
	go s.drain() // want: no bounded lifecycle
}

// spawn launches an arbitrary callable the analysis cannot see into.
func spawn(f func()) {
	go f() // want: target not resolvable
}

// dropped discards the CancelFunc; the context's resources leak until
// the parent is done.
func dropped(parent context.Context) context.Context {
	ctx, _ := context.WithCancel(parent) // want: CancelFunc discarded
	return ctx
}

// used defers the cancel properly; no finding.
func used(parent context.Context) context.Context {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	return ctx
}

// fireAndForget is a justified suppression.
func fireAndForget() {
	//lint:allow goroutine-hygiene one-shot banner print exits on its own
	go func() {
		println("ready")
	}()
}
