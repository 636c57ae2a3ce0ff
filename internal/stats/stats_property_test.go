package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSummarizeNeverProducesNonFinite: for any nonempty sample of finite
// values, every Summary field must be finite — no NaN or ±Inf can leak
// into reported tables.
func TestSummarizeNeverProducesNonFinite(t *testing.T) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	prop := func(raw []float64, extra float64) bool {
		// Map arbitrary inputs onto a nonempty, finite sample.
		xs := append(raw, extra)
		for i, x := range xs {
			if !finite(x) {
				xs[i] = 0
			}
			// Clamp so intermediate sums of squares cannot overflow;
			// 1e150² = 1e300 is still finite.
			xs[i] = math.Mod(xs[i], 1e150)
		}
		s := Summarize(xs)
		return s.N == len(xs) &&
			finite(s.Mean) && finite(s.SD) && finite(s.CI95) &&
			s.SD >= 0 && s.CI95 >= 0
	}
	if err := quick.Check(prop, &quick.Config{
		MaxCount: 2000,
		Rand:     rand.New(rand.NewSource(1)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeConstantSample: a constant sample has zero spread and a
// zero-width interval, exactly.
func TestSummarizeConstantSample(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 3.25
		}
		s := Summarize(xs)
		if s.Mean != 3.25 || s.SD != 0 || s.CI95 != 0 {
			t.Fatalf("n=%d: Summary = %+v, want mean 3.25, SD 0, CI95 0", n, s)
		}
	}
}

// TestTCriticalTableBoundary pins the hand-off from the Student t table
// to the normal approximation: df 30 is the last table entry (2.042),
// df 31 is the first normal value (1.96), and the critical value must
// decrease monotonically toward it through the whole table.
func TestTCriticalTableBoundary(t *testing.T) {
	if got := tCritical(30); got != 2.042 {
		t.Fatalf("tCritical(30) = %v, want 2.042 (last table entry)", got)
	}
	if got := tCritical(31); got != 1.96 {
		t.Fatalf("tCritical(31) = %v, want 1.96 (normal approximation)", got)
	}
	if got := tCritical(1); got != 12.706 {
		t.Fatalf("tCritical(1) = %v, want 12.706", got)
	}
	for df := 2; df <= 40; df++ {
		if tCritical(df) > tCritical(df-1) {
			t.Fatalf("tCritical(%d) = %v > tCritical(%d) = %v; must be non-increasing",
				df, tCritical(df), df-1, tCritical(df-1))
		}
	}
	if got := tCritical(0); !math.IsNaN(got) {
		t.Fatalf("tCritical(0) = %v, want NaN (undefined)", got)
	}
}
