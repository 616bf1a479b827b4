package coords

// The fit path as it stood before it moved onto flat arrays (d8334d3),
// kept verbatim as the model the production code is compared against:
// refFitError ranges over []Vector and calls Dist per reference,
// refMinimize allocates its simplex per run and sorts through
// slices.SortFunc (one edit since: it reads simplexTolerance, the
// constant SimplexOptions.Tolerance became). FuzzFitMatchesReference
// requires the flat kernels and the scratch-reusing simplex to agree
// with them to the last bit.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refFitError is the paper's objective: E(x) = Σ |d_p(i) - d_m(i)| over
// reference points with coordinates refs and measured delays meas.
// With relative=true each term is divided by the measured delay.
func refFitError(x Vector, refs []Vector, meas []float64, relative bool) float64 {
	e := 0.0
	for i, ref := range refs {
		t := math.Abs(Dist(x, ref) - meas[i])
		if relative && meas[i] > 0 {
			t /= meas[i]
		}
		e += t
	}
	return e
}

// refSolveOwn finds the coordinate minimizing the fit error against the
// given references, starting from start.
func refSolveOwn(start Vector, refs []Vector, meas []float64, opt SimplexOptions) Vector {
	return refSolveOwnObj(start, refs, meas, opt, false)
}

func refSolveOwnObj(start Vector, refs []Vector, meas []float64, opt SimplexOptions, relative bool) Vector {
	f := func(x []float64) float64 { return refFitError(x, refs, meas, relative) }
	best, _ := refMinimize(f, start, opt)
	return best
}

// refMinimize runs downhill simplex from start and returns the best point
// found and its objective value. start is not modified.
func refMinimize(f Objective, start []float64, opt SimplexOptions) ([]float64, float64) {
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
		if spread/scale < simplexTolerance {
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

// sameBits is equality to the last bit, NaN payloads included.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameVector(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameBits)
}

// fitCase is one generated problem in both layouts.
type fitCase struct {
	dim      int
	relative bool
	refs     []Vector
	meas     []float64
	start    Vector
	opt      SimplexOptions
}

// genFitCase draws dims 1-9 (so the dim-7 kernel and the generic loop
// both run), 0-40 references and delays that include 0, negatives and
// NaN, with some references on top of each other or on the start point,
// where a distance is exactly 0.
func genFitCase(seed int64, dim, nrefs, shape uint8, relative bool) fitCase {
	r := rand.New(rand.NewSource(seed))
	c := fitCase{dim: 1 + int(dim)%9, relative: relative}
	c.start = randomVector(c.dim, 400, r)
	for i := 0; i < int(nrefs)%41; i++ {
		ref := randomVector(c.dim, 400, r)
		m := r.Float64() * 300
		if shape%3 != 0 { // shape%3 == 0 keeps the problem clean
			switch r.Intn(12) {
			case 0:
				m = 0
			case 1:
				m = -m
			case 2:
				m = math.NaN()
			case 3:
				copy(ref, c.start)
			case 4:
				if i > 0 {
					copy(ref, c.refs[i-1])
				}
			}
		}
		c.refs = append(c.refs, ref)
		c.meas = append(c.meas, m)
	}
	switch shape / 3 % 4 {
	case 1:
		c.opt.MaxIter = 60 * c.dim // Estimator
	case 2:
		c.opt.MaxIter = 120 * c.dim // SolveLeafset
	case 3:
		c.opt = SimplexOptions{MaxIter: 1 + r.Intn(40), InitialStep: 0.5 + r.Float64()*50}
	}
	return c
}

// load fills p with the case's references, as a solver's gather does.
func (c fitCase) load(p *fit) {
	p.reset()
	for i, ref := range c.refs {
		p.add(ref, c.meas[i])
	}
}

// checkFitCase compares the production fit against the model: the
// kernel's value at the start point and at every point either minimizer
// evaluates, then the returned point, value and evaluation count.
func checkFitCase(t *testing.T, p *fit, c fitCase) {
	t.Helper()
	c.load(p)
	p.opt = c.opt
	if got, want := p.obj(c.start), refFitError(c.start, c.refs, c.meas, c.relative); !sameBits(got, want) {
		t.Fatalf("dim %d, %d refs: kernel %v (%#x), model %v (%#x)", c.dim, len(c.refs),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := p.errorN(c.start), refFitError(c.start, c.refs, c.meas, c.relative); !sameBits(got, want) {
		t.Fatalf("dim %d, %d refs: generic loop %v, model %v", c.dim, len(c.refs), got, want)
	}

	var wantEvals, gotEvals int
	wantBest, wantVal := refMinimize(func(x []float64) float64 {
		wantEvals++
		return refFitError(x, c.refs, c.meas, c.relative)
	}, c.start, c.opt)
	kernel := p.obj
	p.obj = func(x []float64) float64 {
		gotEvals++
		v := kernel(x)
		if want := refFitError(x, c.refs, c.meas, c.relative); !sameBits(v, want) {
			t.Fatalf("dim %d, %d refs, evaluation %d: kernel %v, model %v", c.dim, len(c.refs), gotEvals, v, want)
		}
		return v
	}
	gotBest, gotVal := p.sx.minimize(p.obj, c.start, p.opt)
	p.obj = kernel
	if !sameVector(gotBest, wantBest) || !sameBits(gotVal, wantVal) || gotEvals != wantEvals {
		t.Fatalf("dim %d, %d refs, opt %+v: minimum %v = %v after %d evaluations, model %v = %v after %d",
			c.dim, len(c.refs), c.opt, gotBest, gotVal, gotEvals, wantBest, wantVal, wantEvals)
	}
	if got, want := p.solve(c.start), refSolveOwnObj(c.start, c.refs, c.meas, c.opt, c.relative); !sameVector(got, want) {
		t.Fatalf("dim %d, %d refs: solve %v, model %v", c.dim, len(c.refs), got, want)
	}
	// Minimize wraps the same loop around a caller's objective.
	obj := func(x []float64) float64 { return refFitError(x, c.refs, c.meas, c.relative) }
	if got, val := Minimize(obj, c.start, c.opt); !sameVector(got, wantBest) || !sameBits(val, wantVal) {
		t.Fatalf("dim %d, %d refs: Minimize %v = %v, model %v = %v", c.dim, len(c.refs), got, val, wantBest, wantVal)
	}
}

// FuzzFitMatchesReference holds the flat fit path to the model's bits.
// Each input is solved twice on one fit — the second time a different
// problem of the same dimension — so scratch carried from one solve to
// the next would show.
func FuzzFitMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed), uint8(7*seed+3), uint8(seed), seed%2 == 0)
	}
	for shape := uint8(0); shape < 12; shape++ {
		f.Add(int64(shape)+100, uint8(6), uint8(16), shape, shape%2 == 1) // dim 7 × 16 references
	}
	f.Add(int64(200), uint8(6), uint8(0), uint8(0), false) // no references: E ≡ 0
	f.Fuzz(func(t *testing.T, seed int64, dim, nrefs, shape uint8, relative bool) {
		c := genFitCase(seed, dim, nrefs, shape, relative)
		p := newFit(c.dim, relative, 0)
		checkFitCase(t, p, c)
		checkFitCase(t, p, genFitCase(seed+1, dim, nrefs/2, shape+1, relative))
	})
}
