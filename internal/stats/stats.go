// Package stats provides the small statistical toolkit the experiment
// harness uses to reduce raw measurements into the quantities the paper
// reports: means, percentiles, CDFs of relative error, and rank
// correlation for the bandwidth-ordering claim in Section 4.2.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using
// linear interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median is the 50th percentile.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs (copied, then sorted).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the fraction of the sample that is <= x.
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v such that P(v) >= q,
// for q in (0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q > 1 {
		q = 1
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// SpearmanRank returns the Spearman rank correlation coefficient between
// two equal-length samples. The paper's Section 4.2 claims 100% correct
// bandwidth *ranking* at leafset size 32; rank correlation of 1.0 is the
// quantitative form of that claim. Ties receive their average rank.
func SpearmanRank(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: rank correlation needs equal lengths, got %d and %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("stats: rank correlation needs at least 2 samples, got %d", len(a))
	}
	ra := ranks(a)
	rb := ranks(b)
	return pearson(ra, rb), nil
}

// ranks assigns average ranks (1-based) to the sample, averaging ties.
func ranks(xs []float64) []float64 {
	type kv struct {
		v float64
		i int
	}
	s := make([]kv, len(xs))
	for i, v := range xs {
		s[i] = kv{v, i}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	r := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j].v == s[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			r[s[k].i] = avg
		}
		i = j
	}
	return r
}

func pearson(a, b []float64) float64 {
	ma, mb := Mean(a), Mean(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// Summary bundles the descriptive statistics the experiment tables print.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	mx := xs[0]
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		P90:    Percentile(xs, 90),
		Max:    mx,
	}
}

// String renders the summary in a compact fixed format.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f median=%.4f p90=%.4f max=%.4f",
		s.N, s.Mean, s.Median, s.P90, s.Max)
}
