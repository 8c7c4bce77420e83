package main

import (
	"slices"
	"strings"
	"testing"
)

// TestProcSuffixKeysAcrossCoreCounts: Go appends "-<GOMAXPROCS>" to
// every benchmark name only when GOMAXPROCS > 1, so a one-CPU output
// and a two-CPU output of the same benchmarks must key them alike,
// keeping the digits that are part of a name.
func TestProcSuffixKeysAcrossCoreCounts(t *testing.T) {
	for name, out := range map[string]string{
		"GOMAXPROCS=1": `goos: linux
BenchmarkAblationDecompBuffer/off         1   3586537002 ns/op   1.107 speedup   51442360 B/op   28145 allocs/op
BenchmarkAblationDecompBuffer/on-8        1   3827418532 ns/op   1.110 speedup   51475960 B/op   28184 allocs/op
PASS`,
		"2 CPUs": `goos: linux
BenchmarkAblationDecompBuffer/off-2       1   3586537002 ns/op   1.107 speedup   51442360 B/op   28145 allocs/op
BenchmarkAblationDecompBuffer/on-8-2      1   3827418532 ns/op   1.110 speedup   51475960 B/op   28184 allocs/op
PASS`,
	} {
		f, err := parseBench(strings.NewReader(out))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var keys []string
		for k := range f.Benchmarks {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if want := []string{"AblationDecompBuffer/off", "AblationDecompBuffer/on-8"}; !slices.Equal(keys, want) {
			t.Errorf("%s: keys %q, want %q", name, keys, want)
		}
		if b := f.Benchmarks["AblationDecompBuffer/on-8"]; b.NsPerOp != 3827418532 || b.Metrics["speedup"] != 1.11 {
			t.Errorf("%s: on-8 parsed as %+v", name, b)
		}
	}
}
