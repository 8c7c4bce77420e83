// Package slab holds the one rule by which a simulation's constructors
// build on the arrays of a finished one (sim.NewOn): take the old array
// when it is large enough, allocate otherwise, and hand back n zeroed
// elements either way.
package slab

// Reuse returns n zeroed elements: buf's, when its capacity holds n,
// else a new array's.
func Reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
