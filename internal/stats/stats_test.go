package stats_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/manetlab/ldr/internal/stats"
)

func TestSummarizeKnownSample(t *testing.T) {
	// Sample 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample SD 2.138..., n=8.
	s := stats.Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d, want 8", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	wantSD := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.SD-wantSD) > 1e-12 {
		t.Fatalf("SD = %v, want %v", s.SD, wantSD)
	}
	// CI = t(7) * SD / sqrt(8) with t(7) = 2.365.
	wantCI := 2.365 * wantSD / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", s.CI95, wantCI)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := stats.Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty sample: %+v", s)
	}
	s := stats.Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.CI95 != 0 {
		t.Fatalf("single sample: %+v", s)
	}
}

func TestLargeSampleUsesNormalCritical(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 10)
	}
	s := stats.Summarize(xs)
	wantCI := 1.96 * s.SD / 10 // sqrt(100) = 10
	if math.Abs(s.CI95-wantCI) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v (z=1.96 for df=99)", s.CI95, wantCI)
	}
}

func TestOverlaps(t *testing.T) {
	a := stats.Summary{Mean: 10, CI95: 2} // [8, 12]
	b := stats.Summary{Mean: 13, CI95: 2} // [11, 15] — overlaps
	c := stats.Summary{Mean: 20, CI95: 1} // [19, 21] — disjoint
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("overlapping intervals reported disjoint")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Fatal("disjoint intervals reported overlapping")
	}
	if !a.Overlaps(a) {
		t.Fatal("interval does not overlap itself")
	}
}

func TestMeanBetweenMinAndMax(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return stats.Mean(xs) == 0
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // out of scope for this property
			}
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := stats.Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCIShrinksWithSampleSize(t *testing.T) {
	base := []float64{1, 9, 1, 9, 1, 9, 1, 9}
	small := stats.Summarize(base)
	big := stats.Summarize(append(append([]float64{}, base...), base...))
	if big.CI95 >= small.CI95 {
		t.Fatalf("CI did not shrink with more data: %v -> %v", small.CI95, big.CI95)
	}
}

func TestPaired(t *testing.T) {
	for _, c := range []struct {
		name       string
		a, b       []float64
		mean, ci   float64
		above, n   int
		unpairable bool
	}{
		// Differences 1, 2, 3, 2: mean 2, SD sqrt(2/3), CI t(3)·SD/2.
		{name: "known", a: []float64{3, 5, 7, 6}, b: []float64{2, 3, 4, 4},
			mean: 2, ci: 3.182 * math.Sqrt(2.0/3) / 2, above: 4, n: 4},
		// Mixed signs: differences −1, 1, −2: one of three above.
		{name: "mixed", a: []float64{1, 3, 0}, b: []float64{2, 2, 2},
			mean: -2.0 / 3, ci: 4.303 * math.Sqrt(7.0/3) / math.Sqrt(3), above: 1, n: 3},
		{name: "one pair", a: []float64{5}, b: []float64{2}, mean: 3, ci: 0, above: 1, n: 1},
		{name: "all equal", a: []float64{4, 4, 4}, b: []float64{4, 4, 4}, mean: 0, ci: 0, above: 0, n: 3},
		{name: "unequal lengths", a: []float64{1, 2}, b: []float64{1}, unpairable: true},
	} {
		p, err := stats.Paired(c.a, c.b)
		if c.unpairable {
			if err == nil {
				t.Errorf("%s: Paired accepted %d and %d values", c.name, len(c.a), len(c.b))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.N != c.n || p.Above != c.above || math.Abs(p.Mean-c.mean) > 1e-12 || math.Abs(p.CI95-c.ci) > 1e-9 {
			t.Errorf("%s: got %+v, want mean %v ci %v above %d/%d", c.name, p, c.mean, c.ci, c.above, c.n)
		}
	}
}
