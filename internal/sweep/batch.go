package sweep

import "fmt"

// DefaultBatchLines is the panel width executors use when the caller does
// not pick one: wide enough that the stride-1 inner loop across lines hides
// the division latency of the eliminations, small enough that a panel of
// NumVecs chunk-length slices stays in L2.
const DefaultBatchLines = 32

// BatchSolver is implemented by solvers that can process a panel of nb
// lines at once. The panel layout is structure-of-arrays: panels[v] holds
// vector v of every line, element k of line b at panels[v][k*nb+b], so the
// inner loop over lines is contiguous. Carries are line-major — line b's
// carry occupies carryIn[b*CarryLen:(b+1)*CarryLen] — which is exactly the
// wire format the distributed executors ship between neighbor tiles, so a
// batched pass can write its outgoing carries straight into the message
// payload.
//
// Batched passes MUST be bit-identical to running the scalar pass on each
// line: the committed BENCH baselines are gated at zero tolerance. The
// implementations below guarantee this by evaluating the same expressions
// in the same per-line order, reading running state (previous eliminated
// rows, previous solution values) back from the rows already stored in the
// panel instead of from scalar loop-carried variables.
type BatchSolver interface {
	Solver
	// ForwardBatch runs the forward pass on a panel of nb lines of equal
	// length. carryIn is nil for the leftmost chunk; carryOut, when
	// non-nil, receives nb line-major carries of ForwardCarryLen each.
	ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64)
	// BackwardBatch is the backward-pass analogue (carries of
	// BackwardCarryLen per line; carryIn nil for the rightmost chunk).
	BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64)
}

// batchRows returns the chunk length of a panel and validates divisibility.
func batchRows(panel []float64, nb int) int {
	if nb <= 0 {
		panic(fmt.Sprintf("sweep: batch of %d lines", nb))
	}
	if len(panel)%nb != 0 {
		panic(fmt.Sprintf("sweep: panel length %d not a multiple of batch %d", len(panel), nb))
	}
	return len(panel) / nb
}

// --- Recurrence -----------------------------------------------------------

// ForwardBatch implements BatchSolver. The previous solution value is read
// from the row stored in the iteration before, so each line sees exactly
// the scalar recurrence prev = a·prev + b.
func (Recurrence) ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	a, x := panels[0], panels[1]
	n := batchRows(x, nb)
	if n > 0 {
		if len(carryIn) > 0 {
			for b := 0; b < nb; b++ {
				x[b] = a[b]*carryIn[b] + x[b]
			}
		} else {
			for b := 0; b < nb; b++ {
				x[b] = a[b]*0.0 + x[b]
			}
		}
		for k := 1; k < n; k++ {
			base, prev := k*nb, (k-1)*nb
			for b := 0; b < nb; b++ {
				x[base+b] = a[base+b]*x[prev+b] + x[base+b]
			}
		}
	}
	if len(carryOut) > 0 {
		last := (n - 1) * nb
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[b] = x[last+b]
			} else if len(carryIn) > 0 {
				carryOut[b] = carryIn[b]
			} else {
				carryOut[b] = 0
			}
		}
	}
}

// BackwardBatch implements BatchSolver (no backward pass).
func (Recurrence) BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
}

// --- Tridiag --------------------------------------------------------------

// ForwardBatch implements BatchSolver. The Thomas running values (c′, d′)
// of line b are read back from upper/rhs of the previous panel row — the
// scalar pass stores them there anyway — so the arithmetic per line is the
// scalar sequence verbatim.
func (Tridiag) ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	lower, diag, upper, rhs := panels[0], panels[1], panels[2], panels[3]
	n := batchRows(diag, nb)
	for k := 0; k < n; k++ {
		base := k * nb
		prev := base - nb
		for b := 0; b < nb; b++ {
			var cPrev, dPrev float64
			if k > 0 {
				cPrev, dPrev = upper[prev+b], rhs[prev+b]
			} else if len(carryIn) > 0 {
				cPrev, dPrev = carryIn[2*b], carryIn[2*b+1]
			}
			den := diag[base+b] - lower[base+b]*cPrev
			if den == 0 {
				panic("sweep: Tridiag: zero pivot (system not elimination-stable)")
			}
			upper[base+b] = upper[base+b] / den
			rhs[base+b] = (rhs[base+b] - lower[base+b]*dPrev) / den
		}
	}
	if len(carryOut) > 0 {
		last := (n - 1) * nb
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[2*b], carryOut[2*b+1] = upper[last+b], rhs[last+b]
			} else if len(carryIn) > 0 {
				carryOut[2*b], carryOut[2*b+1] = carryIn[2*b], carryIn[2*b+1]
			} else {
				carryOut[2*b], carryOut[2*b+1] = 0, 0
			}
		}
	}
}

// BackwardBatch implements BatchSolver: back-substitution reading x of the
// row to the right from the already-solved panel row.
func (Tridiag) BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	upper, rhs := panels[2], panels[3]
	n := batchRows(rhs, nb)
	if n > 0 {
		last := (n - 1) * nb
		if len(carryIn) > 0 {
			for b := 0; b < nb; b++ {
				rhs[last+b] -= upper[last+b] * carryIn[b]
			}
		}
		for k := n - 2; k >= 0; k-- {
			base, next := k*nb, (k+1)*nb
			for b := 0; b < nb; b++ {
				rhs[base+b] -= upper[base+b] * rhs[next+b]
			}
		}
	}
	if len(carryOut) > 0 {
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[b] = rhs[b]
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
// predecessor row directly: from the panel when it lies inside the chunk
// (the scalar pass stores eliminated rows in place, so the values are the
// same), or from the line-major carryIn when it lies before the chunk
// (carry row j holds eliminated row j−KL relative to the chunk start,
// oldest first). The elimination updates the current row's coefficients in
// place, which matches the scalar active-row updates position for
// position. For the pentadiagonal bandwidth (KL = KU = 2, chosen from the
// solver itself) only the first KL rows can read a carry; the rest run
// through pentaForward.
func (bd Banded) ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	kl, ku := bd.KL, bd.KU
	diag := panels[kl]
	rhs := panels[kl+ku+1]
	n := batchRows(diag, nb)
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
		base := row * nb
		for b := 0; b < nb; b++ {
			r := rhs[base+b]
			// Eliminate lower-band coefficients, farthest predecessor
			// first. Eliminating x[row−k] updates the coefficients of
			// x[row−k+1] … x[row−k+ku], some of which are nearer lower
			// bands — reading each coefficient fresh from its panel picks
			// up those updates exactly like the scalar active row does.
			for k := kl; k >= 1; k-- {
				c := panels[k-1][base+b]
				if c == 0 {
					continue
				}
				pr := row - k // predecessor row, relative to the chunk
				var pd, pu, prhs float64
				var pb int
				var carry []float64
				if pr >= 0 {
					pb = pr*nb + b
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
				panels[k-1][base+b] = 0
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
						panels[k-t-1][base+b] -= f * pu
					case t == k:
						diag[base+b] -= f * pu
					default:
						panels[kl+t-k][base+b] -= f * pu
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
				panels[k-1][base+b] = 0
			}
			rhs[base+b] = r
		}
	}
	if head < n {
		pentaForward(panels, nb, n)
	}

	if len(carryOut) > 0 {
		if len(carryOut) != nb*fcl {
			panic("sweep: Banded.Forward: carryOut length mismatch")
		}
		// Carry row j is eliminated row n−kl+j: inside the chunk read it
		// from the panel, before the chunk pass the incoming carry
		// through, and when the line itself is shorter than kl emit zero
		// rows (never referenced — matching lower coefficients are zero).
		for b := 0; b < nb; b++ {
			for j := 0; j < kl; j++ {
				w := carryOut[b*fcl+j*rl : b*fcl+j*rl+rl]
				idx := n - kl + j
				switch {
				case idx >= 0:
					pb := idx*nb + b
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

// pentaForward eliminates rows 2…n−1 of a KL = KU = 2 panel of n rows.
// Both predecessors of these rows lie inside the panel, so one loop over
// the flat panel index i = row·nb + b runs them with no carry reads. Each
// element gets the generic loop's expressions in its order: the k = 2
// elimination updates l1, the diagonal and r; the k = 1 elimination then
// reads the updated l1 and updates the diagonal, u1 and r.
func pentaForward(panels [][]float64, nb, n int) {
	m := n * nb
	l1, l2, dg := panels[0][:m], panels[1][:m], panels[2][:m]
	u1, u2, rhs := panels[3][:m], panels[4][:m], panels[5][:m]
	for i := 2 * nb; i < m; i++ {
		r := rhs[i]
		if c := l2[i]; c != 0 {
			p := i - 2*nb
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
			p := i - nb
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

// BackwardBatch implements BatchSolver: back-substitution reading the KU
// solution values to the right from already-solved panel rows, or from the
// line-major carryIn (nearest first) past the chunk end. For the
// pentadiagonal bandwidth only the last KU rows can read a carry; the rest
// run through pentaBackward.
func (bd Banded) BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	kl, ku := bd.KL, bd.KU
	diag := panels[kl]
	rhs := panels[kl+ku+1]
	n := batchRows(diag, nb)
	if len(carryIn) != 0 && len(carryIn) != nb*ku {
		panic(fmt.Sprintf("sweep: Banded.BackwardBatch: carryIn length %d, want 0 or %d", len(carryIn), nb*ku))
	}

	tail := 0 // first row the generic loop runs
	if kl == 2 && ku == 2 {
		tail = max(n-ku, 0)
	}
	for row := n - 1; row >= tail; row-- {
		base := row * nb
		for b := 0; b < nb; b++ {
			r := rhs[base+b]
			for t := 1; t <= ku; t++ {
				u := panels[kl+t][base+b]
				if u == 0 {
					continue
				}
				nr := row + t
				if nr < n {
					r -= u * rhs[nr*nb+b]
				} else {
					if len(carryIn) == 0 {
						panic("sweep: Banded.Backward: nonzero upper-band coefficient reaches past the end of the line")
					}
					r -= u * carryIn[b*ku+(nr-n)]
				}
			}
			d := diag[base+b]
			if d == 0 {
				panic("sweep: Banded.Backward: zero pivot")
			}
			rhs[base+b] = r / d
		}
	}
	if tail > 0 {
		pentaBackward(panels, nb, n)
	}

	if len(carryOut) > 0 {
		if len(carryOut) != nb*ku {
			panic("sweep: Banded.Backward: carryOut length mismatch")
		}
		for b := 0; b < nb; b++ {
			for t := 0; t < ku; t++ {
				switch {
				case t < n:
					carryOut[b*ku+t] = rhs[t*nb+b]
				case len(carryIn) > 0:
					carryOut[b*ku+t] = carryIn[b*ku+(t-n)]
				default:
					carryOut[b*ku+t] = 0
				}
			}
		}
	}
}

// pentaBackward back-substitutes rows n−3 down to 0 of a KL = KU = 2 panel
// of n rows, whose right neighbours both lie inside the panel. It walks
// the flat panel index downwards; the lines of one row are independent,
// so their order changes no value.
func pentaBackward(panels [][]float64, nb, n int) {
	m := n * nb
	dg, u1, u2, rhs := panels[2][:m], panels[3][:m], panels[4][:m], panels[5][:m]
	for i := m - 2*nb - 1; i >= 0; i-- {
		r := rhs[i]
		if u := u1[i]; u != 0 {
			r -= u * rhs[i+nb]
		}
		if u := u2[i]; u != 0 {
			r -= u * rhs[i+2*nb]
		}
		d := dg[i]
		if d == 0 {
			panic("sweep: Banded.Backward: zero pivot")
		}
		rhs[i] = r / d
	}
}
