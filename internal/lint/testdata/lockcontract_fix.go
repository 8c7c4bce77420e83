// Fixture for the lock-contract rule: a registry whose map and
// insertion-order slice are guarded by a nocalls mutex, with the
// canonical correct shapes (defer unlock, early-return unlock) and the
// violations the rule must catch — a lock-free read, a use-after-
// unlock, a call under a nocalls mutex, a branch that only sometimes
// releases, and a lock-free package-var access.
package fixture

import (
	"sync"
	"sync/atomic"
)

type registry struct {
	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	entries map[string]int
	//lint:guards mu
	order []string

	gen   atomic.Uint64
	plain int // unguarded on purpose
}

// get uses the early-return unlock shape; no findings.
func (r *registry) get(k string) (int, bool) {
	r.mu.Lock()
	v, ok := r.entries[k]
	if !ok {
		r.mu.Unlock()
		return 0, false
	}
	r.mu.Unlock()
	return v, true
}

// put uses defer unlock; builtin calls (append) are exempt from
// nocalls. No findings.
func (r *registry) put(k string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[k] = v
	r.order = append(r.order, k)
}

// exemptCalls proves builtins, sync/atomic operations, and type
// conversions pass under a nocalls mutex. No findings.
func (r *registry) exemptCalls() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = make(map[string]int)
	r.gen.Add(1)
	r.plain = int(uint32(len(r.order)))
}

// leakRead reads the guarded map without the lock.
func (r *registry) leakRead(k string) int {
	return r.entries[k] // want: r.entries accessed without holding r.mu
}

// leakAfterUnlock releases the mutex and keeps writing.
func (r *registry) leakAfterUnlock(k string) {
	r.mu.Lock()
	r.entries[k]++
	r.mu.Unlock()
	r.order = append(r.order, k) // want: r.order accessed without holding r.mu
}

// callUnderLock calls a method while holding a nocalls mutex.
func (r *registry) callUnderLock() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refresh() // want: call while holding r.mu
}

func (r *registry) refresh() {}

// partialUnlock only releases on one branch; after the merge the lock
// is not provably held.
func (r *registry) partialUnlock(flush bool, k string) {
	r.mu.Lock()
	if flush {
		r.mu.Unlock()
	}
	r.entries[k]++ // want: r.entries accessed without holding r.mu
	if !flush {
		r.mu.Unlock()
	}
}

// snapshotLen is a justified suppression: a racy len read for logging.
func (r *registry) snapshotLen() int {
	//lint:allow lock-contract racy len is fine for the log line
	return len(r.entries)
}

var (
	//lint:mutex nocalls
	tableMu sync.Mutex
	//lint:guards tableMu
	table = map[string]int{}
)

// lookup holds the package-level mutex correctly.
func lookup(k string) int {
	tableMu.Lock()
	defer tableMu.Unlock()
	return table[k]
}

// leakVar reads the guarded package var without its mutex.
func leakVar(k string) int {
	return table[k] // want: package var table accessed without tableMu
}

// jobTable is generic: its guarded field resolves through the instantiated
// selection's origin, in its own methods and on an instance alike.
type jobTable[J any] struct {
	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	m map[string]J
}

// get holds the mutex; no findings.
func (t *jobTable[J]) get(k string) J {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

// leakGeneric reads the guarded map inside a method of the generic type.
func (t *jobTable[J]) leakGeneric(k string) J {
	return t.m[k] // want: t.m accessed without holding t.mu
}

// leakInstance reads the guarded map through an instantiated value.
func leakInstance(t *jobTable[int], k string) int {
	return t.m[k] // want: t.m accessed without holding t.mu
}
