package coords

import "math"

// fit is one node's coordinate problem, the paper's objective
//
//	E(x) = Σ |d_p(i) - d_m(i)|
//
// over reference points: reference i has coordinate
// refs[i*dim:(i+1)*dim] and measured delay meas[i]. With relative set
// each term is divided by its measured delay. A fit also owns the
// simplex scratch its solves reuse, so one fit serves one solve at a
// time: one per SolveLeafset call, per SolveGNP solve, per Estimator.
//
// Operation order is part of the contract (every table and hash in the
// repository depends on the last bit of it, and FuzzFitMatchesReference
// enforces it): per reference s += d*d over the components in index
// order, sqrt, |·-m|, the optional /m, then e += t over the references
// in index order.
type fit struct {
	dim      int
	relative bool
	refs     []float64
	meas     []float64
	opt      SimplexOptions
	sx       simplex
	obj      Objective
}

// newFit binds the error kernel for dim once, so a solve allocates
// nothing.
func newFit(dim int, relative bool, maxIter int) *fit {
	p := &fit{dim: dim, relative: relative, opt: SimplexOptions{MaxIter: maxIter}}
	p.obj = p.errorN
	if dim == 7 {
		p.obj = p.error7
	}
	return p
}

// reset empties the reference set, keeping its storage.
func (p *fit) reset() { p.refs, p.meas = p.refs[:0], p.meas[:0] }

// add appends one reference: its coordinate (copied) and measured delay.
func (p *fit) add(c []float64, m float64) {
	p.refs = append(p.refs, c...)
	p.meas = append(p.meas, m)
}

// solve minimizes the fit error from start. The result aliases the
// simplex scratch: copy it out before the next solve.
func (p *fit) solve(start []float64) []float64 {
	best, _ := p.sx.minimize(p.obj, start, p.opt)
	return best
}

// errorN is the fit error for any dimension.
func (p *fit) errorN(x []float64) float64 {
	dim, refs, relative := p.dim, p.refs, p.relative
	e := 0.0
	for i, m := range p.meas {
		s := 0.0
		for j, r := range refs[i*dim : i*dim+dim] {
			d := x[j] - r
			s += d * d
		}
		t := math.Abs(math.Sqrt(s) - m)
		if relative && m > 0 {
			t /= m
		}
		e += t
	}
	return e
}

// error7 is errorN at dim 7 — core's coordDim, Figure 4 and the
// benchmark's pools — with x in locals and one bounds check per
// reference. It has no inner loop, so unlike errorN its speed hardly
// depends on which half of a 64-byte line the linker starts it on
// (`make layout`).
func (p *fit) error7(x []float64) float64 {
	_ = x[6]
	x0, x1, x2, x3, x4, x5, x6 := x[0], x[1], x[2], x[3], x[4], x[5], x[6]
	refs, relative := p.refs, p.relative
	e := 0.0
	for i, m := range p.meas {
		r := refs[i*7 : i*7+7 : i*7+7]
		d0, d1, d2, d3, d4, d5, d6 := x0-r[0], x1-r[1], x2-r[2], x3-r[3], x4-r[4], x5-r[5], x6-r[6]
		s := d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6
		t := math.Abs(math.Sqrt(s) - m)
		if relative && m > 0 {
			t /= m
		}
		e += t
	}
	return e
}
