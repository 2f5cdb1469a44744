package lp

// Workspace holds the reusable buffers of a solve so that repeated solves
// (the MILP layer solves one LP relaxation per branch-and-bound node) do not
// re-allocate the working state every time. The zero value is ready to use;
// buffers grow to the high-water mark of the problems solved through it and
// are then reused.
//
// A solve that ends Optimal also leaves its final tableau behind — the
// retained tableau — and the workspace can re-optimise it in place instead
// of solving a neighbouring problem from scratch: Bound adds one bound row
// over a variable or a sum of them, SetRHS moves right-hand sides, and both restore feasibility with
// dual simplex pivots from the retained basis. Fork saves a copy of the
// retained tableau to the side and Swap exchanges the two, which is how a
// caller evaluates several neighbours of one solved problem.
//
// A Workspace may be reused across problems of different shapes but must not
// be shared by concurrent solves.
type Workspace struct {
	cur, alt *tableau // retained tableau and the side copy
	stamps   uint64   // last stamp handed out
	sol      []float64
}

// retained returns the tableau solves build in.
func (w *Workspace) retained() *tableau {
	if w.cur == nil {
		w.cur = &tableau{}
	}
	return w.cur
}

// restamp gives the retained tableau a fresh identity after it changed.
func (w *Workspace) restamp() uint64 {
	w.stamps++
	w.cur.stamp = w.stamps
	return w.stamps
}

// solution returns a zeroed primal-solution buffer of length n. The buffer
// is owned by the Workspace: it is only valid until the next solve through
// the same Workspace, so callers that keep a solution must copy X.
func (w *Workspace) solution(n int) []float64 {
	if cap(w.sol) < n {
		w.sol = make([]float64, n)
	}
	s := w.sol[:n]
	clear(s)
	return s
}

// Warm reports whether the workspace retains an optimal tableau with room
// for one more bound row, i.e. whether Bound can work.
func (w *Workspace) Warm() bool {
	return w.cur != nil && w.cur.valid && w.cur.spare > 0
}

// Holds reports whether the retained tableau is still the one that produced
// sol: sol came from this workspace, and every re-optimisation since then
// happened on the far side of a Fork/Swap pair.
func (w *Workspace) Holds(sol *Solution) bool {
	return sol != nil && sol.ws == w && w.cur != nil && w.cur.valid && w.cur.stamp == sol.stamp
}

// Fork copies the retained tableau to the side, so that the retained one can
// be re-optimised and the original recovered with Swap. It reports false,
// doing nothing, when no optimal tableau is retained.
func (w *Workspace) Fork() bool {
	if w.cur == nil || !w.cur.valid {
		return false
	}
	if w.alt == nil {
		w.alt = &tableau{}
	}
	w.alt.copyFrom(w.cur)
	return true
}

// Swap exchanges the retained tableau with the side copy made by Fork.
func (w *Workspace) Swap() {
	w.cur, w.alt = w.alt, w.cur
}

// Bound adds the bound Σ coef·x ≤ bound (sense LE) or ≥ bound (sense GE)
// over terms — one variable, or a sum such as a group of replica counts — to
// the retained tableau and re-optimises it with the dual simplex: the result
// is that of solving the retained problem plus the bound row from scratch,
// for the few pivots it takes to repair one violated row. Bounds accumulate.
// The second result is false — and nothing happens — unless Warm, terms is
// non-empty over variables of the retained problem and sense is LE or GE. A
// result other than Optimal drops the retained tableau. The returned X is
// owned by the workspace, as with SolveWS.
func (w *Workspace) Bound(terms []Term, sense Sense, bound float64, opt Options) (Solution, bool) {
	if !w.Warm() || len(terms) == 0 || sense == EQ {
		return Solution{}, false
	}
	for _, tm := range terms {
		if tm.Var < 0 || tm.Var >= w.cur.n {
			return Solution{}, false
		}
	}
	w.cur.addBound(terms, sense, bound)
	return w.reoptimize(opt), true
}

// SetRHS changes the right-hand sides of the given rows of the retained
// tableau's problem (indices into its Cons) and re-optimises with the dual
// simplex. The second result is false — and nothing happens — when no optimal
// tableau is retained or one of the rows is an equality.
func (w *Workspace) SetRHS(rows []int, rhs []float64, opt Options) (Solution, bool) {
	if w.cur == nil || !w.cur.valid {
		return Solution{}, false
	}
	if len(rhs) != len(rows) {
		return Solution{}, false
	}
	for _, i := range rows {
		if i < 0 || i >= len(w.cur.meta) || w.cur.meta[i].slack < 0 {
			return Solution{}, false
		}
	}
	for k, i := range rows {
		w.cur.setRHS(i, rhs[k])
	}
	return w.reoptimize(opt), true
}

// reoptimize runs the dual simplex on the retained tableau and reads the
// outcome off it.
func (w *Workspace) reoptimize(opt Options) Solution {
	t := w.cur
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 200*(t.m+t.ncols) + 2000
	}
	t.iters = 0
	sol := Solution{ws: w, stamp: w.restamp()}
	switch t.dualIterate(maxIter) {
	case optimal:
		sol.Status = Optimal
		sol.X = w.solution(t.n)
		sol.Objective = t.point(sol.X)
	case infeasible:
		sol.Status = Infeasible
		t.valid = false
	default:
		sol.Status = IterLimit
		t.valid = false
	}
	sol.Iters = t.iters
	return sol
}
