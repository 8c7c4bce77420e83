// Package oracle is LATTE-CC's differential-conformance layer: small,
// obviously-correct reference implementations of the simulator's
// correctness-critical cores, plus differential runners that execute the
// optimized implementations side by side with the references on
// generated inputs and report the first divergence with a replayable
// seed.
//
// Three references live here:
//
//   - RefCache: a naive compressed-cache model — lines kept in a plain
//     recency-ordered list per set, free space recounted from scratch on
//     every query, LRU found by walking the list (internal/cache keeps
//     counters and incremental accounting instead).
//   - RefDecode*: bit-at-a-time reference decoders for the BDI, FPC,
//     CPACK, BPC and SC payload formats, sharing no code with the
//     optimized codecs in internal/compress.
//   - RefScheduler: a single-stepped reference warp scheduler for GTO
//     and RR that re-derives each pick from the policy's specification
//     over the ready warps' ids, rather than internal/sim's ready bitsets.
//
// The references trade every optimization for obviousness: quadratic
// walks, per-query recounts, linear code-book scans. They are test
// infrastructure — never importable from the cycle-level model — but
// they are still subject to the determinism lint rules, because a
// nondeterministic oracle cannot replay the divergence it just found.
//
// Entry points: DiffCodecs, DiffCache, DiffSchedulers, DiffAll. Each
// takes a seed; a non-nil *Divergence pins the component, step and seed
// so a TestReplayDivergence rerun reproduces the failure exactly.
package oracle

import (
	"fmt"
	"math/rand"

	"lattecc/internal/compress"
)

// Divergence reports the first disagreement between an optimized
// implementation and its reference model.
type Divergence struct {
	// Component names what diverged: "codec:BDI", "cache", "sched:GTO".
	Component string
	// Seed replays the exact input sequence (see ReplayDivergence in the
	// package tests and the README's Verification section).
	Seed int64
	// Step is the zero-based input/operation index at which state first
	// differed.
	Step int
	// Detail describes the mismatch (expected vs got).
	Detail string
}

// Error implements error with replay instructions embedded.
func (d *Divergence) Error() string {
	return fmt.Sprintf("oracle divergence in %s at step %d (replay with seed %d): %s",
		d.Component, d.Step, d.Seed, d.Detail)
}

// diverge builds a Divergence.
func diverge(component string, seed int64, step int, format string, args ...interface{}) *Divergence {
	return &Divergence{
		Component: component,
		Seed:      seed,
		Step:      step,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// GenLine produces one cache line from a seeded generator, drawn from
// value-distribution classes chosen to exercise every codec encoding:
// uniform noise (incompressible), narrow strides (BDI base-delta, BPC
// planes), repeated words (CPACK dictionary, FPC RepBytes), zero-heavy
// lines (zero runs and zero-line detection), float-like bit patterns,
// and a small shared value pool (SC's value locality).
func GenLine(rng *rand.Rand) []byte {
	line := make([]byte, compress.LineSize)
	switch rng.Intn(7) {
	case 0: // uniform random: mostly incompressible
		for i := range line {
			line[i] = byte(rng.Intn(256))
		}
	case 1: // small-stride 32-bit sequence
		base := rng.Uint32()
		stride := uint32(rng.Intn(256)) - 128
		for i := 0; i < compress.WordsPerLine; i++ {
			putLE32(line, i, base+uint32(i)*stride)
		}
	case 2: // one repeated 8-byte value
		var pat [8]byte
		rng.Read(pat[:])
		for off := 0; off < compress.LineSize; off += 8 {
			copy(line[off:], pat[:])
		}
	case 3: // zero-heavy with sparse small values
		for i := 0; i < compress.WordsPerLine; i++ {
			if rng.Intn(4) == 0 {
				putLE32(line, i, uint32(rng.Intn(1<<8)))
			}
		}
	case 4: // float-like: common exponent, noisy mantissa
		exp := uint32(rng.Intn(256)) << 23
		for i := 0; i < compress.WordsPerLine; i++ {
			putLE32(line, i, exp|uint32(rng.Intn(1<<23)))
		}
	case 5: // small value pool: dictionary and Huffman locality
		var pool [4]uint32
		for i := range pool {
			pool[i] = rng.Uint32()
		}
		for i := 0; i < compress.WordsPerLine; i++ {
			putLE32(line, i, pool[rng.Intn(len(pool))])
		}
	case 6: // halfword patterns: FPC HalfZero / TwoSE8
		for i := 0; i < compress.WordsPerLine; i++ {
			if rng.Intn(2) == 0 {
				putLE32(line, i, uint32(rng.Intn(1<<16))<<16)
			} else {
				lo := uint32(int8(rng.Intn(256))) & 0xFFFF
				hi := uint32(int8(rng.Intn(256))) & 0xFFFF
				putLE32(line, i, hi<<16|lo)
			}
		}
	}
	return line
}

// putLE32 writes word i of a line little-endian, independently of the
// compress package's helpers.
func putLE32(line []byte, i int, v uint32) {
	line[i*4+0] = byte(v)
	line[i*4+1] = byte(v >> 8)
	line[i*4+2] = byte(v >> 16)
	line[i*4+3] = byte(v >> 24)
}
