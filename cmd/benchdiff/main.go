// Command benchdiff turns `go test -bench` output into a JSON baseline
// (benchmark name -> ns/op, B/op, allocs/op plus domain metrics) and
// gates CI on performance regressions against a committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 -benchmem . > bench.out
//	benchdiff -in bench.out -baseline BENCH_PR9.json -out bench-fresh.json -max-regress 1.20
//
// With -count > 1 the minimum-ns/op run per benchmark is kept (its B/op
// and allocs/op ride along), which damps scheduler noise; domain metrics
// (speedup, ratio, ...) come from the simulator and are deterministic.
// A benchmark regresses when its ns/op — or, when both sides recorded
// them, its B/op or allocs/op — exceeds baseline * max-regress. Older
// baselines written without -benchmem simply skip the allocation gates.
// Benchmarks that appear or disappear are reported but never fail the
// gate. Without -baseline the tool just writes -out and succeeds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's record in the JSON baseline. BytesPerOp and
// AllocsPerOp are pointers because baselines predating the allocation
// gate (or runs without -benchmem) don't record them — nil means "not
// measured", and the gate only fires when both sides have a value.
type Bench struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the committed baseline format.
type File struct {
	Label      string           `json:"label,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	var (
		in         = flag.String("in", "-", "bench output to read ('-' = stdin)")
		out        = flag.String("out", "", "write the parsed results to this JSON file")
		baseline   = flag.String("baseline", "", "explicit baseline JSON to compare against")
		maxRegress = flag.Float64("max-regress", 1.20, "fail when ns/op exceeds baseline by this factor")
		label      = flag.String("label", "", "label stored in the output JSON")
	)
	flag.Parse()

	if err := run(*in, *out, *baseline, *maxRegress, *label); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(in, out, baseline string, maxRegress float64, label string) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	current, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(current.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", in)
	}
	current.Label = label

	// Read the baseline before writing -out, so a run that overwrites
	// the baseline file still compares against its old contents.
	var base *File
	if baseline != "" {
		base, err = readBaseline(baseline)
		if err != nil {
			return err
		}
	}

	if out != "" {
		buf, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(current.Benchmarks))
	}

	if base == nil {
		fmt.Println("no baseline to compare against; treating this run as the first baseline")
		return nil
	}
	return compare(base, current, baseline, maxRegress)
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkFig11Speedup/SS/LATTE-CC-8  1  123456 ns/op  1.234 speedup".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// digitTail matches a trailing "-<digits>" of a benchmark name.
var digitTail = regexp.MustCompile(`-\d+$`)

// procSuffix returns the "-<GOMAXPROCS>" tail Go appends to every
// benchmark name (m[1] of each benchLine match) when GOMAXPROCS > 1,
// so baselines compare across machines with different core counts.
// With GOMAXPROCS=1 Go appends none, and a name's own digits
// (AblationDecompBuffer/on-8) must stay, so the tail counts only when
// every name ends in the same one.
func procSuffix(matches [][]string) string {
	var suffix string
	for i, m := range matches {
		tail := digitTail.FindString(m[1])
		if tail == "" || (i > 0 && tail != suffix) {
			return ""
		}
		suffix = tail
	}
	return suffix
}

// parseBench folds bench output into per-benchmark records, keeping the
// minimum ns/op seen across repeated -count runs.
func parseBench(r io.Reader) (*File, error) {
	var matches [][]string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text())); m != nil {
			matches = append(matches, m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	suffix := procSuffix(matches)
	out := &File{Benchmarks: map[string]Bench{}}
	for _, m := range matches {
		name := strings.TrimPrefix(strings.TrimSuffix(m[1], suffix), "Benchmark")
		fields := strings.Fields(m[2])
		var nsPerOp float64
		var bytesPerOp, allocsPerOp *float64
		metrics := map[string]float64{}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				nsPerOp = v
			case "B/op":
				b := v
				bytesPerOp = &b
			case "allocs/op":
				a := v
				allocsPerOp = &a
			case "MB/s":
				// throughput restates ns/op; don't gate on it twice
			default:
				metrics[unit] = v
			}
		}
		if nsPerOp == 0 {
			continue
		}
		prev, seen := out.Benchmarks[name]
		if !seen || nsPerOp < prev.NsPerOp {
			if seen && len(metrics) == 0 {
				metrics = prev.Metrics
			}
			if seen && bytesPerOp == nil {
				bytesPerOp = prev.BytesPerOp
			}
			if seen && allocsPerOp == nil {
				allocsPerOp = prev.AllocsPerOp
			}
			out.Benchmarks[name] = Bench{NsPerOp: nsPerOp, BytesPerOp: bytesPerOp, AllocsPerOp: allocsPerOp, Metrics: metrics}
		}
	}
	return out, nil
}

func readBaseline(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &f, nil
}

// compare reports per-benchmark deltas and fails on ns/op, B/op, or
// allocs/op regressions. The allocation gates only fire when both the
// baseline and the current run recorded the metric (-benchmem).
func compare(base, current *File, basePath string, maxRegress float64) error {
	names := make([]string, 0, len(current.Benchmarks))
	for n := range current.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)

	var regressions []string
	for _, n := range names {
		cur := current.Benchmarks[n]
		b, ok := base.Benchmarks[n]
		if !ok {
			fmt.Printf("new       %-50s %12.0f ns/op\n", n, cur.NsPerOp)
			continue
		}
		ratio := cur.NsPerOp / b.NsPerOp
		status := "ok"
		if ratio > maxRegress {
			status = "REGRESSED"
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx > %.2fx allowed)",
				n, b.NsPerOp, cur.NsPerOp, ratio, maxRegress))
		}
		for _, g := range []struct {
			unit      string
			base, cur *float64
		}{
			{"B/op", b.BytesPerOp, cur.BytesPerOp},
			{"allocs/op", b.AllocsPerOp, cur.AllocsPerOp},
		} {
			if g.base == nil || g.cur == nil {
				continue // one side wasn't run with -benchmem
			}
			// A zero baseline gates on any allocation at all: once a
			// path is proven allocation-free, a single alloc/op is a
			// regression no ratio would catch.
			if (*g.base == 0 && *g.cur > 0) || (*g.base > 0 && *g.cur / *g.base > maxRegress) {
				status = "REGRESSED"
				regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f %s (> %.2fx allowed)",
					n, *g.base, *g.cur, g.unit, maxRegress))
			}
		}
		fmt.Printf("%-9s %-50s %12.0f ns/op  (baseline %.0f, %.2fx)\n", status, n, cur.NsPerOp, b.NsPerOp, ratio)
	}
	baseNames := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		baseNames = append(baseNames, n)
	}
	sort.Strings(baseNames)
	for _, n := range baseNames {
		if _, ok := current.Benchmarks[n]; !ok {
			fmt.Printf("removed   %s\n", n)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed >%.0f%% vs %s:\n  %s",
			len(regressions), (maxRegress-1)*100, basePath, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("all %d benchmarks within %.2fx of %s\n", len(names), maxRegress, basePath)
	return nil
}
