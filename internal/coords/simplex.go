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

import "math"

// Objective is a function to minimize over R^n.
type Objective func(x []float64) float64

// SimplexOptions tunes the Nelder-Mead minimizer.
type SimplexOptions struct {
	// MaxIter bounds function evaluations (default 400*n).
	MaxIter int
	// InitialStep is the size of the initial simplex around the start
	// point (default 10).
	InitialStep float64
}

func (o SimplexOptions) withDefaults(n int) SimplexOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 400 * n
	}
	if o.InitialStep <= 0 {
		o.InitialStep = 10
	}
	return o
}

// simplexTolerance stops a run when the simplex's relative value spread
// falls below it.
const simplexTolerance = 1e-6

// Minimize runs downhill simplex from start and returns the best point
// found and its objective value. start is not modified.
func Minimize(f Objective, start []float64, opt SimplexOptions) ([]float64, float64) {
	if len(start) == 0 {
		return nil, f(nil)
	}
	var s simplex
	best, val := s.minimize(f, start, opt)
	return append([]float64(nil), best...), val
}

// simplex is the minimizer's scratch, reused from one run to the next
// by whoever owns it (a fit, and so one solve loop or one Estimator).
// pts holds n+4 rows of n — the n+1 vertices, then the centroid, trial
// and expansion points — and shares its array with vals.
type simplex struct {
	n         int
	pts, vals []float64
	order     []int
}

func (s *simplex) resize(n int) {
	buf := make([]float64, (n+4)*n+n+1)
	s.n, s.pts, s.vals, s.order = n, buf[:(n+4)*n], buf[(n+4)*n:], make([]int, n+1)
}

// minimize is the one Nelder-Mead loop. The returned point aliases the
// scratch and is valid until the next call; len(start) must be > 0.
func (s *simplex) minimize(f Objective, start []float64, opt SimplexOptions) ([]float64, float64) {
	n := len(start)
	if s.n != n {
		s.resize(n)
	}
	opt = opt.withDefaults(n)
	pts, vals, order := s.pts, s.vals, s.order
	at := func(i int) []float64 { return pts[i*n : i*n+n : i*n+n] }
	centroid, trial, expd := at(n+1), at(n+2), at(n+3)

	// Standard coefficients.
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	// Initial simplex: start plus one step along each axis.
	for i := 0; i <= n; i++ {
		p := at(i)
		copy(p, start)
		if i > 0 {
			p[i-1] += opt.InitialStep
		}
		order[i] = i
	}
	for i := 0; i <= n; i++ {
		vals[i] = f(at(i))
	}

	evals := n + 1
	for evals < opt.MaxIter {
		// Stable insertion sort of the vertices by value. It is spelled
		// with < alone so that a NaN value compares equal to everything,
		// and it is the order slices.SortFunc produced at n+1 <= 12.
		for i := 1; i <= n; i++ {
			for j := i; j > 0 && vals[order[j]] < vals[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		best, worst := order[0], order[n]
		pw := at(worst)

		// Convergence test on value spread.
		spread := math.Abs(vals[worst] - vals[best])
		scale := math.Abs(vals[worst]) + math.Abs(vals[best]) + 1e-12
		if spread/scale < simplexTolerance {
			break
		}

		// Centroid of all but the worst.
		clear(centroid)
		for _, i := range order[:n] {
			for j, v := range at(i) {
				centroid[j] += v
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}

		// Reflection.
		for j := range trial {
			trial[j] = centroid[j] + alpha*(centroid[j]-pw[j])
		}
		fr := f(trial)
		evals++

		switch {
		case fr < vals[best]:
			// Expansion.
			for j := range expd {
				expd[j] = centroid[j] + gamma*(trial[j]-centroid[j])
			}
			fe := f(expd)
			evals++
			if fe < fr {
				copy(pw, expd)
				vals[worst] = fe
			} else {
				copy(pw, trial)
				vals[worst] = fr
			}
		case fr < vals[order[n-1]]:
			// Accept reflection.
			copy(pw, trial)
			vals[worst] = fr
		default:
			// Contraction (toward the better of worst/reflected).
			if fr < vals[worst] {
				for j := range trial {
					trial[j] = centroid[j] + rho*(trial[j]-centroid[j])
				}
			} else {
				for j := range trial {
					trial[j] = centroid[j] + rho*(pw[j]-centroid[j])
				}
			}
			fc := f(trial)
			evals++
			if fc < math.Min(fr, vals[worst]) {
				copy(pw, trial)
				vals[worst] = fc
			} else {
				// Shrink toward the best point.
				pb := at(best)
				for _, i := range order[1:] {
					p := at(i)
					for j := range p {
						p[j] = pb[j] + sigma*(p[j]-pb[j])
					}
					vals[i] = f(p)
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
	return at(bi), vals[bi]
}
