// Package coords implements coordinates-based latency estimation
// (Section 4.1 of the paper): GNP-style landmark coordinates and the
// paper's fully distributed leafset-based variant, both driven by the
// downhill simplex (Nelder-Mead) optimizer minimizing
//
//	E(x) = Σ_i |d_predicted(i) - d_measured(i)|
//
// over a node's own coordinate given its neighbors' coordinates and
// measured delays.
package coords

import (
	"math"
	"slices"
)

// Objective is a function to minimize over R^n.
type Objective func(x []float64) float64

// SimplexOptions tunes the Nelder-Mead minimizer.
type SimplexOptions struct {
	// MaxIter bounds function evaluations (default 400*n).
	MaxIter int
	// Tolerance stops when the simplex's relative value spread falls
	// below it (default 1e-6).
	Tolerance float64
	// InitialStep is the size of the initial simplex around the start
	// point (default 10).
	InitialStep float64
}

func (o SimplexOptions) withDefaults(n int) SimplexOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 400 * n
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-6
	}
	if o.InitialStep <= 0 {
		o.InitialStep = 10
	}
	return o
}

// Minimize runs downhill simplex from start and returns the best point
// found and its objective value. start is not modified.
func Minimize(f Objective, start []float64, opt SimplexOptions) ([]float64, float64) {
	n := len(start)
	if n == 0 {
		return nil, f(nil)
	}
	opt = opt.withDefaults(n)

	// Standard coefficients.
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	// Initial simplex: start plus one step along each axis.
	pts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	pts[0] = append([]float64(nil), start...)
	for i := 1; i <= n; i++ {
		p := append([]float64(nil), start...)
		p[i-1] += opt.InitialStep
		pts[i] = p
	}
	for i := range pts {
		vals[i] = f(pts[i])
	}

	order := make([]int, n+1)
	for i := range order {
		order[i] = i
	}

	centroid := make([]float64, n)
	trial := make([]float64, n)
	exp := make([]float64, n)
	// Spelled with < and > rather than cmp.Compare so that a NaN value
	// compares equal to everything, as it did under a less-function.
	byValue := func(a, b int) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[a] > vals[b]:
			return 1
		}
		return 0
	}

	evals := n + 1
	for evals < opt.MaxIter {
		slices.SortFunc(order, byValue)
		best, worst := order[0], order[n]

		// Convergence test on value spread.
		spread := math.Abs(vals[worst] - vals[best])
		scale := math.Abs(vals[worst]) + math.Abs(vals[best]) + 1e-12
		if spread/scale < opt.Tolerance {
			break
		}

		// Centroid of all but the worst.
		for j := 0; j < n; j++ {
			centroid[j] = 0
		}
		for _, i := range order[:n] {
			for j := 0; j < n; j++ {
				centroid[j] += pts[i][j]
			}
		}
		for j := 0; j < n; j++ {
			centroid[j] /= float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			trial[j] = centroid[j] + alpha*(centroid[j]-pts[worst][j])
		}
		fr := f(trial)
		evals++

		switch {
		case fr < vals[best]:
			// Expansion.
			for j := 0; j < n; j++ {
				exp[j] = centroid[j] + gamma*(trial[j]-centroid[j])
			}
			fe := f(exp)
			evals++
			if fe < fr {
				copy(pts[worst], exp)
				vals[worst] = fe
			} else {
				copy(pts[worst], trial)
				vals[worst] = fr
			}
		case fr < vals[order[n-1]]:
			// Accept reflection.
			copy(pts[worst], trial)
			vals[worst] = fr
		default:
			// Contraction (toward the better of worst/reflected).
			if fr < vals[worst] {
				for j := 0; j < n; j++ {
					trial[j] = centroid[j] + rho*(trial[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					trial[j] = centroid[j] + rho*(pts[worst][j]-centroid[j])
				}
			}
			fc := f(trial)
			evals++
			if fc < math.Min(fr, vals[worst]) {
				copy(pts[worst], trial)
				vals[worst] = fc
			} else {
				// Shrink toward the best point.
				for _, i := range order[1:] {
					for j := 0; j < n; j++ {
						pts[i][j] = pts[best][j] + sigma*(pts[i][j]-pts[best][j])
					}
					vals[i] = f(pts[i])
					evals++
				}
			}
		}
	}

	bi := 0
	for i := 1; i <= n; i++ {
		if vals[i] < vals[bi] {
			bi = i
		}
	}
	return append([]float64(nil), pts[bi]...), vals[bi]
}
