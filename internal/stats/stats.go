// Package stats provides the summary statistics used to report experiment
// results: means and 95% confidence intervals over repeated trials, as in
// the error bars and ± columns of the paper's Table 1 and figures.
package stats

import (
	"fmt"
	"math"
)

// Summary is the mean and the half-width of the 95% confidence interval
// of a sample.
type Summary struct {
	N    int
	Mean float64
	SD   float64 // sample standard deviation
	CI95 float64 // half-width of the 95% confidence interval
}

// Summarize computes a Summary over xs using the Student t distribution
// for small samples. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{N: 1, Mean: mean}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	se := sd / math.Sqrt(float64(n))
	return Summary{
		N:    n,
		Mean: mean,
		SD:   sd,
		CI95: tCritical(n-1) * se,
	}
}

// Overlaps reports whether the 95% confidence intervals of two summaries
// overlap — the paper's criterion for "statistically identical".
func (s Summary) Overlaps(o Summary) bool {
	lo1, hi1 := s.Mean-s.CI95, s.Mean+s.CI95
	lo2, hi2 := o.Mean-o.CI95, o.Mean+o.CI95
	return lo1 <= hi2 && lo2 <= hi1
}

// tCritical returns the two-tailed 97.5th percentile of the Student t
// distribution with df degrees of freedom.
func tCritical(df int) float64 {
	// Standard table; beyond 30 degrees of freedom the normal value is
	// accurate to better than 2%.
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.96
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pair is the paired comparison of two samples measured on the same
// seeds: the Summary of the per-seed differences a[i] − b[i], and how
// many of them are positive (a ahead of b on Above of N seeds).
type Pair struct {
	Summary
	Above int
}

// Paired compares a with b seed by seed: a[i] and b[i] must come from
// the same seed, so the difference cancels what the seed fixes (in this
// repo, the mobility and the traffic). The CI is Summarize's Student t
// interval over the n differences, with n − 1 degrees of freedom.
func Paired(a, b []float64) (Pair, error) {
	if len(a) != len(b) {
		return Pair{}, fmt.Errorf("stats: paired samples of %d and %d values", len(a), len(b))
	}
	d := make([]float64, len(a))
	var above int
	for i := range a {
		d[i] = a[i] - b[i]
		if d[i] > 0 {
			above++
		}
	}
	return Pair{Summarize(d), above}, nil
}
