package mathx

import "math"

// NelderMeadOptions configures the simplex optimizer.
type NelderMeadOptions struct {
	MaxIter   int     // maximum function evaluations (default 200*dim)
	Tol       float64 // convergence tolerance on simplex spread (default 1e-8)
	InitStep  float64 // initial simplex step per coordinate (default 0.1)
	Reflect   float64 // reflection coefficient (default 1)
	Expand    float64 // expansion coefficient (default 2)
	Contract  float64 // contraction coefficient (default 0.5)
	Shrink    float64 // shrink coefficient (default 0.5)
	LowerClip []float64
	UpperClip []float64
}

func (o *NelderMeadOptions) defaults(dim int) {
	if o.MaxIter == 0 {
		o.MaxIter = 200 * dim
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.InitStep == 0 {
		o.InitStep = 0.1
	}
	if o.Reflect == 0 {
		o.Reflect = 1
	}
	if o.Expand == 0 {
		o.Expand = 2
	}
	if o.Contract == 0 {
		o.Contract = 0.5
	}
	if o.Shrink == 0 {
		o.Shrink = 0.5
	}
}

// NelderMead minimizes f starting from x0 using the downhill simplex
// method (Nelder & Mead, 1965). It returns the best point found and its
// value. Coordinates are optionally clipped to [LowerClip, UpperClip].
func NelderMead(f func([]float64) float64, x0 []float64, opts *NelderMeadOptions) ([]float64, float64) {
	dim := len(x0)
	if dim == 0 {
		return nil, f(nil)
	}
	if opts == nil {
		opts = &NelderMeadOptions{}
	}
	opts.defaults(dim)

	clip := func(x []float64) []float64 {
		if opts.LowerClip != nil {
			for i := range x {
				if x[i] < opts.LowerClip[i] {
					x[i] = opts.LowerClip[i]
				}
			}
		}
		if opts.UpperClip != nil {
			for i := range x {
				if x[i] > opts.UpperClip[i] {
					x[i] = opts.UpperClip[i]
				}
			}
		}
		return x
	}

	// Build initial simplex: x0 plus a step along each axis.
	pts := make([][]float64, dim+1)
	vals := make([]float64, dim+1)
	pts[0] = clip(VecClone(x0))
	vals[0] = f(pts[0])
	evals := 1
	for i := 0; i < dim; i++ {
		p := VecClone(x0)
		step := opts.InitStep
		if p[i] != 0 {
			step = opts.InitStep * math.Abs(p[i])
		}
		p[i] += step
		pts[i+1] = clip(p)
		vals[i+1] = f(pts[i+1])
		evals++
	}

	order := func() {
		// Insertion sort keeps the simplex ordered by value (ascending).
		for i := 1; i <= dim; i++ {
			p, v := pts[i], vals[i]
			j := i - 1
			for j >= 0 && vals[j] > v {
				pts[j+1], vals[j+1] = pts[j], vals[j]
				j--
			}
			pts[j+1], vals[j+1] = p, v
		}
	}

	// The trial points live in three buffers that trade places with the
	// simplex's worst vertex, so an iteration allocates nothing.
	centroid := make([]float64, dim)
	reflectPt := make([]float64, dim)
	trialPt := make([]float64, dim)
	for evals < opts.MaxIter {
		order()
		if math.Abs(vals[dim]-vals[0]) < opts.Tol {
			break
		}
		// Centroid of all but the worst point.
		clear(centroid)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				centroid[j] += pts[i][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}

		worst := pts[dim]
		clip(vecAffine(reflectPt, centroid, worst, 1+opts.Reflect, -opts.Reflect))
		reflectVal := f(reflectPt)
		evals++

		switch {
		case reflectVal < vals[0]:
			clip(vecAffine(trialPt, centroid, worst, 1+opts.Reflect*opts.Expand, -opts.Reflect*opts.Expand))
			expandVal := f(trialPt)
			evals++
			if expandVal < reflectVal {
				pts[dim], trialPt, vals[dim] = trialPt, worst, expandVal
			} else {
				pts[dim], reflectPt, vals[dim] = reflectPt, worst, reflectVal
			}
		case reflectVal < vals[dim-1]:
			pts[dim], reflectPt, vals[dim] = reflectPt, worst, reflectVal
		default:
			clip(vecAffine(trialPt, centroid, worst, 1-opts.Contract, opts.Contract))
			contractVal := f(trialPt)
			evals++
			if contractVal < vals[dim] {
				pts[dim], trialPt, vals[dim] = trialPt, worst, contractVal
			} else {
				// Shrink the whole simplex towards the best point.
				for i := 1; i <= dim; i++ {
					for j := 0; j < dim; j++ {
						pts[i][j] = pts[0][j] + opts.Shrink*(pts[i][j]-pts[0][j])
					}
					clip(pts[i])
					vals[i] = f(pts[i])
					evals++
				}
			}
		}
	}
	order()
	return pts[0], vals[0]
}

// vecAffine writes a*ca + b*cb element-wise to out and returns it.
func vecAffine(out, a, b []float64, ca, cb float64) []float64 {
	for i := range a {
		out[i] = ca*a[i] + cb*b[i]
	}
	return out
}
