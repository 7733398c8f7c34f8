package main

import (
	"errors"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so a spread printed here matches one computed from the
// emitted values. Samples of fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile range as a share of the median: the
// noise measure the bounds in BENCHMARK.json are judged against.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest percentile of tailPercentiles that
// leaves at least ten samples beyond it: a tail read from fewer points
// is a single outlier, not a percentile. ok is false below 20 samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// tail returns the value at tailPercentile(len(xs)) with the chosen
// percentile; ok is false when the sample is too small for any.
func tail(xs []float64) (v, p float64, ok bool) {
	p, ok = tailPercentile(len(xs))
	if !ok {
		return 0, 0, false
	}
	return quantile(xs, p/100), p, true
}

var errNonPositive = errors.New("geomean of a non-positive value")

// geomean is the geometric mean of strictly positive values: the
// paper's per-cell throughputs and latencies span orders of magnitude
// across P and schemes, so an arithmetic mean would be set by the
// largest cells alone.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("geomean of an empty sample")
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0, errNonPositive
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// per divides a count by its base, 0 when the base is empty. Every
// ratio metric goes through it so its base is named at the call site.
func per(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
