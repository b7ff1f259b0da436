package sweep

import "fmt"

// DefaultBatchLines is the batch width executors use when the caller does
// not pick one: wide enough that the inner loop across lines hides the
// division latency of the eliminations, small enough that one batch's rows
// stay in L1 while they advance. On a view of contiguous lines (a sweep
// along a tile's last axis), a kernel row touches one element of each of
// the nb lines per vec — NumVecs·nb cache lines, 12 KB for the
// pentadiagonal solver at 32 — and the next seven rows reuse them; on
// other views a row is nb adjacent elements per vec, and a packed panel of
// NumVecs chunk-length slices stays in L2.
const DefaultBatchLines = 32

// View locates a batch of equal-length lines in a flat slice: element k of
// line b lies at k·RowStride + b·LineStride. A batch whose lines form an
// arithmetic progression in a grid's storage (one Stride, one length,
// bases a constant step apart) is a view straight into the grid, with
// RowStride the lines' Stride and LineStride the step; a packed
// structure-of-arrays panel is the view Packed(nb, n). Distinct elements of
// a view must not share an offset.
type View struct {
	Lines, Len            int
	RowStride, LineStride int
}

// Packed returns the view of a packed structure-of-arrays panel of nb lines
// of n elements: element k of line b at k·nb + b, so rows are contiguous.
func Packed(nb, n int) View { return View{Lines: nb, Len: n, RowStride: nb, LineStride: 1} }

// check panics unless the view holds at least one line, its strides are
// not negative and every panel covers it.
func (pv View) check(panels ...[]float64) {
	if pv.Lines <= 0 {
		panic(fmt.Sprintf("sweep: batch of %d lines", pv.Lines))
	}
	if pv.RowStride < 0 || pv.LineStride < 0 {
		panic(fmt.Sprintf("sweep: view strides %d, %d must not be negative", pv.RowStride, pv.LineStride))
	}
	if pv.Len <= 0 {
		return
	}
	need := (pv.Len-1)*pv.RowStride + (pv.Lines-1)*pv.LineStride + 1
	for _, p := range panels {
		if len(p) < need {
			panic(fmt.Sprintf("sweep: panel of %d values, a view of %d lines × %d (strides %d, %d) spans %d",
				len(p), pv.Lines, pv.Len, pv.RowStride, pv.LineStride, need))
		}
	}
}

// BatchSolver is implemented by solvers that can process a batch of lines
// at once. Each panels[v] holds vector v of every line of the batch, laid
// out as the View says: a view straight into a tile grid when the lines
// form an arithmetic progression in its storage, or a packed
// structure-of-arrays panel otherwise. The kernels run rows outermost and
// lines innermost, so the lines of a row are independent and hide each
// other's latency. Carries are line-major — line b's carry occupies
// carryIn[b*CarryLen:(b+1)*CarryLen] — which is exactly the wire format the
// distributed executors ship between neighbor tiles, so a batched pass can
// write its outgoing carries straight into the message payload.
//
// Batched passes MUST be bit-identical to running the scalar pass on each
// line: the committed BENCH baselines are gated at zero tolerance. The
// implementations below guarantee this by evaluating the same expressions
// in the same per-line order, reading running state (previous eliminated
// rows, previous solution values) back from the rows already stored in the
// panel instead of from scalar loop-carried variables. One body serves
// every view, so a view and a packed panel of the same lines give the same
// bits.
type BatchSolver interface {
	Solver
	// ForwardBatch runs the forward pass on the lines of view pv. carryIn
	// is nil for the leftmost chunk; carryOut, when non-nil, receives
	// pv.Lines line-major carries of ForwardCarryLen each.
	ForwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64)
	// BackwardBatch is the backward-pass analogue (carries of
	// BackwardCarryLen per line; carryIn nil for the rightmost chunk).
	BackwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64)
}

// --- Recurrence -----------------------------------------------------------

// ForwardBatch implements BatchSolver. The previous solution value is read
// from the row stored in the iteration before, so each line sees exactly
// the scalar recurrence prev = a·prev + b.
func (Recurrence) ForwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64) {
	a, x := panels[0], panels[1]
	pv.check(a, x)
	nb, n, rs, ls := pv.Lines, pv.Len, pv.RowStride, pv.LineStride
	if n > 0 {
		for b, i := 0, 0; b < nb; b, i = b+1, i+ls {
			if len(carryIn) > 0 {
				x[i] = a[i]*carryIn[b] + x[i]
			} else {
				x[i] = a[i]*0.0 + x[i]
			}
		}
		for k := 1; k < n; k++ {
			for b, i := 0, k*rs; b < nb; b, i = b+1, i+ls {
				x[i] = a[i]*x[i-rs] + x[i]
			}
		}
	}
	if len(carryOut) > 0 {
		last := (n - 1) * rs
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[b] = x[last+b*ls]
			} else if len(carryIn) > 0 {
				carryOut[b] = carryIn[b]
			} else {
				carryOut[b] = 0
			}
		}
	}
}

// BackwardBatch implements BatchSolver (no backward pass).
func (Recurrence) BackwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64) {
}

// --- Tridiag --------------------------------------------------------------

// ForwardBatch implements BatchSolver. The Thomas running values (c′, d′)
// of line b are read back from upper/rhs of the previous row — the scalar
// pass stores them there anyway — so the arithmetic per line is the scalar
// sequence verbatim.
func (Tridiag) ForwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64) {
	lower, diag, upper, rhs := panels[0], panels[1], panels[2], panels[3]
	pv.check(lower, diag, upper, rhs)
	nb, n, rs, ls := pv.Lines, pv.Len, pv.RowStride, pv.LineStride
	for k := 0; k < n; k++ {
		for b, i := 0, k*rs; b < nb; b, i = b+1, i+ls {
			var cPrev, dPrev float64
			if k > 0 {
				cPrev, dPrev = upper[i-rs], rhs[i-rs]
			} else if len(carryIn) > 0 {
				cPrev, dPrev = carryIn[2*b], carryIn[2*b+1]
			}
			den := diag[i] - lower[i]*cPrev
			if den == 0 {
				panic("sweep: Tridiag: zero pivot (system not elimination-stable)")
			}
			upper[i] = upper[i] / den
			rhs[i] = (rhs[i] - lower[i]*dPrev) / den
		}
	}
	if len(carryOut) > 0 {
		last := (n - 1) * rs
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[2*b], carryOut[2*b+1] = upper[last+b*ls], rhs[last+b*ls]
			} else if len(carryIn) > 0 {
				carryOut[2*b], carryOut[2*b+1] = carryIn[2*b], carryIn[2*b+1]
			} else {
				carryOut[2*b], carryOut[2*b+1] = 0, 0
			}
		}
	}
}

// BackwardBatch implements BatchSolver: back-substitution reading x of the
// row to the right from the already-solved row.
func (Tridiag) BackwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64) {
	upper, rhs := panels[2], panels[3]
	pv.check(upper, rhs)
	nb, n, rs, ls := pv.Lines, pv.Len, pv.RowStride, pv.LineStride
	if n > 0 && len(carryIn) > 0 {
		for b, i := 0, (n-1)*rs; b < nb; b, i = b+1, i+ls {
			rhs[i] -= upper[i] * carryIn[b]
		}
	}
	for k := n - 2; k >= 0; k-- {
		for b, i := 0, k*rs; b < nb; b, i = b+1, i+ls {
			rhs[i] -= upper[i] * rhs[i+rs]
		}
	}
	if len(carryOut) > 0 {
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[b] = rhs[b*ls]
			} else if len(carryIn) > 0 {
				carryOut[b] = carryIn[b]
			} else {
				carryOut[b] = 0
			}
		}
	}
}

// --- Banded ---------------------------------------------------------------

// ForwardBatch implements BatchSolver. Where the scalar pass keeps a
// sliding window of the last KL eliminated rows, the batched pass reads a
// predecessor row directly: from the view when it lies inside the chunk
// (the scalar pass stores eliminated rows in place, so the values are the
// same), or from the line-major carryIn when it lies before the chunk
// (carry row j holds eliminated row j−KL relative to the chunk start,
// oldest first). The elimination updates the current row's coefficients in
// place, which matches the scalar active-row updates position for
// position. For the pentadiagonal bandwidth (KL = KU = 2, chosen from the
// solver itself) only the first KL rows can read a carry; the rest run
// through pentaForward.
func (bd Banded) ForwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64) {
	kl, ku := bd.KL, bd.KU
	diag := panels[kl]
	rhs := panels[kl+ku+1]
	pv.check(panels[:bd.NumVecs()]...)
	nb, n, rs, ls := pv.Lines, pv.Len, pv.RowStride, pv.LineStride
	rl := bd.rowLen()
	fcl := bd.ForwardCarryLen()
	if len(carryIn) != 0 && len(carryIn) != nb*fcl {
		panic(fmt.Sprintf("sweep: Banded.ForwardBatch: carryIn length %d, want 0 or %d", len(carryIn), nb*fcl))
	}

	head := n // rows the generic loop runs
	if kl == 2 && ku == 2 {
		head = min(kl, n)
	}
	for row := 0; row < head; row++ {
		for b, i := 0, row*rs; b < nb; b, i = b+1, i+ls {
			r := rhs[i]
			// Eliminate lower-band coefficients, farthest predecessor
			// first. Eliminating x[row−k] updates the coefficients of
			// x[row−k+1] … x[row−k+ku], some of which are nearer lower
			// bands — reading each coefficient fresh from its panel picks
			// up those updates exactly like the scalar active row does.
			for k := kl; k >= 1; k-- {
				c := panels[k-1][i]
				if c == 0 {
					continue
				}
				pr := row - k // predecessor row, relative to the chunk
				var pd, pu, prhs float64
				var pb int
				var carry []float64
				if pr >= 0 {
					pb = pr*rs + b*ls
					pd = diag[pb]
				} else {
					if len(carryIn) == 0 {
						panic("sweep: Banded.Forward: nonzero lower-band coefficient reaches before the start of the line")
					}
					carry = carryIn[b*fcl+(kl+pr)*rl:]
					pd = carry[0]
				}
				if pd == 0 {
					panic("sweep: Banded.Forward: zero pivot (system not elimination-stable)")
				}
				f := c / pd
				panels[k-1][i] = 0
				for t := 1; t <= ku; t++ {
					if carry == nil {
						pu = panels[kl+t][pb]
					} else {
						pu = carry[t]
					}
					// Coefficient of x[row−k+t]: a nearer lower band when
					// t < k, the diagonal when t == k, an upper band when
					// t > k.
					switch {
					case t < k:
						panels[k-t-1][i] -= f * pu
					case t == k:
						diag[i] -= f * pu
					default:
						panels[kl+t-k][i] -= f * pu
					}
				}
				if carry == nil {
					prhs = rhs[pb]
				} else {
					prhs = carry[ku+1]
				}
				r -= f * prhs
			}
			for k := 1; k <= kl; k++ {
				panels[k-1][i] = 0
			}
			rhs[i] = r
		}
	}
	if head < n {
		pentaForward(panels, pv)
	}

	if len(carryOut) > 0 {
		if len(carryOut) != nb*fcl {
			panic("sweep: Banded.Forward: carryOut length mismatch")
		}
		// Carry row j is eliminated row n−kl+j: inside the chunk read it
		// from the view, before the chunk pass the incoming carry through,
		// and when the line itself is shorter than kl emit zero rows
		// (never referenced — matching lower coefficients are zero).
		for b := 0; b < nb; b++ {
			for j := 0; j < kl; j++ {
				w := carryOut[b*fcl+j*rl : b*fcl+j*rl+rl]
				idx := n - kl + j
				switch {
				case idx >= 0:
					pb := idx*rs + b*ls
					w[0] = diag[pb]
					for t := 1; t <= ku; t++ {
						w[t] = panels[kl+t][pb]
					}
					w[ku+1] = rhs[pb]
				case len(carryIn) > 0:
					copy(w, carryIn[b*fcl+(idx+kl)*rl:b*fcl+(idx+kl)*rl+rl])
				default:
					for t := range w {
						w[t] = 0
					}
				}
			}
		}
	}
}

// pentaForward eliminates rows 2…n−1 of a KL = KU = 2 view of n rows.
// Both predecessors of these rows lie inside the view, so the loop runs
// them with no carry reads. Each element gets the generic loop's
// expressions in its order: the k = 2 elimination updates l1, the diagonal
// and r; the k = 1 elimination then reads the updated l1 and updates the
// diagonal, u1 and r.
func pentaForward(panels [][]float64, pv View) {
	nb, n, rs, ls := pv.Lines, pv.Len, pv.RowStride, pv.LineStride
	l1, l2, dg := panels[0], panels[1], panels[2]
	u1, u2, rhs := panels[3], panels[4], panels[5]
	for row := 2; row < n; row++ {
		for b, i := 0, row*rs; b < nb; b, i = b+1, i+ls {
			r := rhs[i]
			if c := l2[i]; c != 0 {
				p := i - 2*rs
				pd := dg[p]
				if pd == 0 {
					panic("sweep: Banded.Forward: zero pivot (system not elimination-stable)")
				}
				f := c / pd
				l2[i] = 0
				l1[i] -= f * u1[p]
				dg[i] -= f * u2[p]
				r -= f * rhs[p]
			}
			if c := l1[i]; c != 0 {
				p := i - rs
				pd := dg[p]
				if pd == 0 {
					panic("sweep: Banded.Forward: zero pivot (system not elimination-stable)")
				}
				f := c / pd
				l1[i] = 0
				dg[i] -= f * u1[p]
				u1[i] -= f * u2[p]
				r -= f * rhs[p]
			}
			l1[i] = 0
			l2[i] = 0
			rhs[i] = r
		}
	}
}

// BackwardBatch implements BatchSolver: back-substitution reading the KU
// solution values to the right from already-solved rows, or from the
// line-major carryIn (nearest first) past the chunk end. For the
// pentadiagonal bandwidth only the last KU rows can read a carry; the rest
// run through pentaBackward.
func (bd Banded) BackwardBatch(panels [][]float64, pv View, carryIn, carryOut []float64) {
	kl, ku := bd.KL, bd.KU
	diag := panels[kl]
	rhs := panels[kl+ku+1]
	pv.check(panels[kl:bd.NumVecs()]...)
	nb, n, rs, ls := pv.Lines, pv.Len, pv.RowStride, pv.LineStride
	if len(carryIn) != 0 && len(carryIn) != nb*ku {
		panic(fmt.Sprintf("sweep: Banded.BackwardBatch: carryIn length %d, want 0 or %d", len(carryIn), nb*ku))
	}

	tail := 0 // first row the generic loop runs
	if kl == 2 && ku == 2 {
		tail = max(n-ku, 0)
	}
	for row := n - 1; row >= tail; row-- {
		for b, i := 0, row*rs; b < nb; b, i = b+1, i+ls {
			r := rhs[i]
			for t := 1; t <= ku; t++ {
				u := panels[kl+t][i]
				if u == 0 {
					continue
				}
				nr := row + t
				if nr < n {
					r -= u * rhs[i+t*rs]
				} else {
					if len(carryIn) == 0 {
						panic("sweep: Banded.Backward: nonzero upper-band coefficient reaches past the end of the line")
					}
					r -= u * carryIn[b*ku+(nr-n)]
				}
			}
			d := diag[i]
			if d == 0 {
				panic("sweep: Banded.Backward: zero pivot")
			}
			rhs[i] = r / d
		}
	}
	if tail > 0 {
		pentaBackward(panels, pv)
	}

	if len(carryOut) > 0 {
		if len(carryOut) != nb*ku {
			panic("sweep: Banded.Backward: carryOut length mismatch")
		}
		for b := 0; b < nb; b++ {
			for t := 0; t < ku; t++ {
				switch {
				case t < n:
					carryOut[b*ku+t] = rhs[t*rs+b*ls]
				case len(carryIn) > 0:
					carryOut[b*ku+t] = carryIn[b*ku+(t-n)]
				default:
					carryOut[b*ku+t] = 0
				}
			}
		}
	}
}

// pentaBackward back-substitutes rows n−3 down to 0 of a KL = KU = 2 view
// of n rows, whose right neighbours both lie inside the view. The lines of
// one row are independent, so their order changes no value.
func pentaBackward(panels [][]float64, pv View) {
	nb, n, rs, ls := pv.Lines, pv.Len, pv.RowStride, pv.LineStride
	dg, u1, u2, rhs := panels[2], panels[3], panels[4], panels[5]
	for row := n - 3; row >= 0; row-- {
		for b, i := 0, row*rs; b < nb; b, i = b+1, i+ls {
			r := rhs[i]
			if u := u1[i]; u != 0 {
				r -= u * rhs[i+rs]
			}
			if u := u2[i]; u != 0 {
				r -= u * rhs[i+2*rs]
			}
			d := dg[i]
			if d == 0 {
				panic("sweep: Banded.Backward: zero pivot")
			}
			rhs[i] = r / d
		}
	}
}
