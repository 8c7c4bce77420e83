package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median is the middle value, averaging the two middle values of an even
// count (the convention of Python's statistics.median). Zero for no data.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile: a weighted
// mean of every order statistic, with Beta((n+1)q, (n+1)(1-q)) weights.
// Job latencies cluster by run kind with wide gaps between kinds (a
// fig11 run of one workload against another, a store hit against a fresh
// simulation); a single order statistic jumps across such a gap from run
// to run, the weighted mean does not. Zero for no data.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(float64(i)/float64(n), a, b)
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// samplesBeyond is how many of n samples lie beyond the q-quantile. The
// guide for tail figures asks for at least ten.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of betaInc by the modified
// Lentz method.
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		even := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values. Zero for no data.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// heapAllocs is the cumulative count of heap bytes allocated by the
// process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// retainedHeap forces a collection and returns the live heap it left.
func retainedHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
