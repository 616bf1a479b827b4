package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean = %v, want 2.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("p50 = %v", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{1, 2}, 50); !approx(got, 1.5, 1e-12) {
		t.Errorf("interpolated p50 = %v, want 1.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of empty should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.P(0); got != 0 {
		t.Errorf("P(0) = %v", got)
	}
	if got := c.P(2); got != 0.5 {
		t.Errorf("P(2) = %v", got)
	}
	if got := c.P(4); got != 1 {
		t.Errorf("P(4) = %v", got)
	}
	if got := c.P(2.5); got != 0.5 {
		t.Errorf("P(2.5) = %v", got)
	}
	if c.Len() != 4 {
		t.Error("Len")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if got := c.Quantile(0.5); got != 20 {
		t.Errorf("Q(0.5) = %v, want 20", got)
	}
	if got := c.Quantile(1); got != 40 {
		t.Errorf("Q(1) = %v, want 40", got)
	}
	if got := c.Quantile(0.01); got != 10 {
		t.Errorf("Q(0.01) = %v, want 10", got)
	}
	if got := c.Quantile(2); got != 40 {
		t.Errorf("Q(2) clamps to max, got %v", got)
	}
}

// P is monotone nondecreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := NewCDF(raw)
		for _, p := range probes {
			v := c.P(p)
			if v < 0 || v > 1 {
				return false
			}
			if v2 := c.P(p + 1); v2 < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	r, err := SpearmanRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r, 1, 1e-12) {
		t.Errorf("perfect rank corr = %v", r)
	}
	// Reversed order: -1.
	c := []float64{50, 40, 30, 20, 10}
	r, _ = SpearmanRank(a, c)
	if !approx(r, -1, 1e-12) {
		t.Errorf("inverse rank corr = %v", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{1, 2, 2, 3}
	r, err := SpearmanRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r, 1, 1e-12) {
		t.Errorf("tied identical rank corr = %v", r)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := SpearmanRank([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := SpearmanRank([]float64{1}, []float64{1}); err == nil {
		t.Error("too-short input should error")
	}
}

func TestSpearmanMonotoneTransformInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := make([]float64, 50)
	for i := range a {
		a[i] = r.Float64()
	}
	b := make([]float64, 50)
	for i := range b {
		b[i] = math.Exp(3*a[i]) + 5 // strictly monotone transform
	}
	got, err := SpearmanRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 1, 1e-12) {
		t.Errorf("monotone transform should preserve rank corr, got %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("string should be non-empty")
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary")
	}
}
