package lp

import "math"

// tableau is the dense working state of the simplex method. Column layout:
//
//	[0, n)                   structural variables
//	[n, n+nslack)            slack/surplus columns (one per LE/GE row)
//	[artStart, artStart+nart) artificial columns (one per GE/EQ row)
//	[artStart+nart, ncols)   slacks of bound rows added after the solve
//
// rows[i] is the i-th constraint row expressed in the current basis, rhs[i]
// its right-hand side (always ≥ 0 for a feasible basis), and basis[i] the
// column currently basic in row i. obj is the reduced-cost row and objShift
// the objective value of the current basis (with sign such that the solver
// always minimizes).
//
// A tableau built through a Workspace reserves spareBounds extra rows and
// columns behind the model: an optimal tableau can then take a bound on a
// variable, or on a sum of variables, as one more row written in its current
// basis (addBound) and win primal feasibility back with the dual simplex
// (dualIterate), instead of being rebuilt and re-solved from the
// slack/artificial basis.
type tableau struct {
	tableauBufs
	m, n    int // constraint rows, structural variables
	nart    int
	ncols   int
	objShif float64
	iters   int
	// artStart is the first artificial column; artificials are barred from
	// entering once phase 1 completes.
	artStart int
	inPhase2 bool

	// stride is the row pitch of flat, and spare the number of bound rows
	// that still fit.
	stride int
	spare  int
	// cost is the objective of the problem the tableau was built from (not
	// copied).
	cost []float64
	// valid marks an optimal phase-2 basis left behind by the last solve;
	// stamp identifies that solve (see Workspace.Holds).
	valid bool
	stamp uint64
}

// tableauBufs are a tableau's buffers, which outlive the problem in it: a
// workspace tableau is rebuilt or overwritten in place.
type tableauBufs struct {
	// flat backs rows at a fixed stride; rows and obj are views of the first
	// ncols entries, re-sliced when a bound row activates a spare column.
	flat  []float64
	rows  [][]float64
	rhs   []float64
	basis []int
	obj   []float64
	// meta describes each model row (the first len(meta) rows; bound rows
	// come after) for setRHS.
	meta []rowMeta
	nz   []int32 // pivot's scratch: nonzero columns of the pivot row
}

// spareBounds is the number of bound rows a workspace tableau can absorb
// before the caller has to rebuild it. Branch and bound plunges one bound per
// level, so this is the plunge depth between cold node solves.
const spareBounds = 16

// rowMeta is what setRHS needs to know about a model row: its slack/surplus
// column (-1 for equality rows, which have none), the factor that turns a
// change of the row's right-hand side into a multiple of that column, and
// the current right-hand side in the caller's own sense.
type rowMeta struct {
	slack int
	fac   float64
	rhs   float64
}

type iterStatus int8

const (
	optimal iterStatus = iota
	unbounded
	iterLimit
	infeasible
)

// normalize returns the constraint's sense once its RHS is made non-negative,
// and the sign (±1) that normalization multiplies the row by.
func normalize(c *Constraint) (Sense, float64) {
	if c.RHS >= 0 {
		return c.Sense, 1
	}
	switch c.Sense {
	case LE:
		return GE, -1
	case GE:
		return LE, -1
	}
	return EQ, -1
}

// newTableau builds the phase-1 tableau of p. With a workspace it is built
// in the workspace's retained tableau, recycling its buffers and reserving
// spareBounds bound rows; without one it is a fresh, exactly-sized value.
func newTableau(p *Problem, ws *Workspace) *tableau {
	m := len(p.Cons)
	n := p.NumVars

	// Count auxiliary columns. Every LE/GE row gets one slack/surplus;
	// every GE/EQ row gets one artificial.
	nslack, nart := 0, 0
	for i := range p.Cons {
		s, _ := normalize(&p.Cons[i])
		if s != EQ {
			nslack++
		}
		if s != LE {
			nart++
		}
	}

	t := &tableau{}
	spare := 0
	if ws != nil {
		t = ws.retained()
		spare = spareBounds
	}
	*t = tableau{
		tableauBufs: t.tableauBufs,
		m:           m,
		n:           n,
		nart:        nart,
		ncols:       n + nslack + nart,
		artStart:    n + nslack,
		spare:       spare,
		cost:        p.Obj,
	}
	t.alloc(m+spare, t.ncols+spare)
	clear(t.flat[:m*t.stride])
	clear(t.rhs[:m])
	clear(t.obj[:t.stride])
	t.meta = t.meta[:m]
	t.view()

	slackCol := n
	artCol := t.artStart
	for i := range p.Cons {
		c := &p.Cons[i]
		row := t.rows[i]
		sense, sgn := normalize(c)
		for _, term := range c.Terms {
			row[term.Var] += sgn * term.Coef
		}
		t.rhs[i] = sgn * c.RHS
		t.meta[i] = rowMeta{slack: -1, rhs: c.RHS}
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			t.meta[i].slack, t.meta[i].fac = slackCol, sgn
			slackCol++
		case GE:
			row[slackCol] = -1
			t.meta[i].slack, t.meta[i].fac = slackCol, -sgn
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}

	// Phase-1 objective: minimize the sum of artificials. Price out the
	// initially-basic artificials: obj_j = -Σ_{rows with artificial basic} row_j.
	for j := t.artStart; j < t.ncols; j++ {
		t.obj[j] = 1
	}
	for i := range t.rows {
		if t.basis[i] >= t.artStart {
			for j := 0; j < t.ncols; j++ {
				t.obj[j] -= t.rows[i][j]
			}
			t.objShif -= t.rhs[i]
		}
	}
	return t
}

// alloc sizes the buffers for up to capRows rows of capCols columns, keeping
// their contents when they are already large enough.
func (t *tableau) alloc(capRows, capCols int) {
	t.stride = capCols
	if need := capRows * capCols; cap(t.flat) < need {
		t.flat = make([]float64, need)
	} else {
		t.flat = t.flat[:need]
	}
	if cap(t.rows) < capRows {
		t.rows = make([][]float64, capRows)
		t.rhs = make([]float64, capRows)
		t.basis = make([]int, capRows)
		t.meta = make([]rowMeta, capRows)
	}
	t.meta = t.meta[:cap(t.meta)]
	if cap(t.obj) < capCols {
		t.obj = make([]float64, capCols)
	}
}

// view re-slices rows, rhs, basis and obj to the active m × ncols region.
func (t *tableau) view() {
	t.rows = t.rows[:t.m]
	for i := range t.rows {
		t.rows[i] = t.flat[i*t.stride : i*t.stride+t.ncols]
	}
	t.rhs = t.rhs[:t.m]
	t.basis = t.basis[:t.m]
	t.obj = t.obj[:t.ncols]
}

// objVal returns the current objective value (in the minimizing direction).
func (t *tableau) objVal() float64 { return -t.objShif }

// setPhase2Objective installs the caller's objective (converted to
// minimization) and prices out the current basis.
func (t *tableau) setPhase2Objective(p *Problem) {
	for j := range t.obj {
		t.obj[j] = 0
	}
	t.objShif = 0
	sgn := 1.0
	if p.Maximize {
		sgn = -1.0
	}
	for j, c := range p.Obj {
		t.obj[j] = sgn * c
	}
	for i, bv := range t.basis {
		c := t.obj[bv]
		if c == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < t.ncols; j++ {
			t.obj[j] -= c * row[j]
		}
		t.obj[bv] = 0 // exact, avoids drift
		t.objShif -= c * t.rhs[i]
	}
	t.inPhase2 = true
}

// dropArtificials prepares the tableau for phase 2: artificial columns are
// barred from entering, and any artificial still basic (necessarily at zero
// level) is pivoted out onto a non-artificial column when possible. If a row
// has no eligible pivot the row is redundant and the artificial stays basic
// at zero, which is harmless.
func (t *tableau) dropArtificials() {
	for i := range t.basis {
		if t.basis[i] < t.artStart {
			continue
		}
		row := t.rows[i]
		pivotCol := -1
		for j := 0; j < t.artStart; j++ {
			if math.Abs(row[j]) > tol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
		}
	}
}

// iterate runs simplex pivots until optimality, unboundedness, or the
// iteration budget is reached. It starts with Dantzig pricing and falls back
// to Bland's rule after a long degenerate stall, which guarantees
// termination.
func (t *tableau) iterate(maxIter int) iterStatus {
	stall := 0
	bland := false
	const stallLimit = 200
	for {
		if t.iters >= maxIter {
			return iterLimit
		}
		col := t.chooseEntering(bland)
		if col < 0 {
			return optimal
		}
		row := t.chooseLeaving(col)
		if row < 0 {
			return unbounded
		}
		degenerate := t.rhs[row] <= tol
		t.pivot(row, col)
		t.iters++
		if degenerate {
			stall++
			if stall >= stallLimit {
				bland = true
			}
		} else {
			stall = 0
			bland = false
		}
	}
}

// chooseEntering returns the entering column, or -1 at optimality.
func (t *tableau) chooseEntering(bland bool) int {
	limit := t.ncols
	if t.inPhase2 {
		limit = t.artStart // artificials may not re-enter
	}
	if bland {
		for j := 0; j < limit; j++ {
			if t.obj[j] < -tol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -tol
	for j := 0; j < limit; j++ {
		if t.obj[j] < bestVal {
			bestVal = t.obj[j]
			best = j
		}
	}
	return best
}

// chooseLeaving runs the ratio test for the entering column, returning the
// pivot row or -1 if the column is unbounded. Ties break toward the smallest
// basis variable index (a lexicographic-ish guard against cycling).
func (t *tableau) chooseLeaving(col int) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		a := t.rows[i][col]
		if a <= tol {
			continue
		}
		r := t.rhs[i] / a
		if r < bestRatio-tol || (r < bestRatio+tol && (bestRow < 0 || t.basis[i] < t.basis[bestRow])) {
			bestRatio = r
			bestRow = i
		}
	}
	return bestRow
}

// pivot makes column col basic in row prow.
//
// The elimination runs over the pivot row's nonzero columns only, gathered
// once per pivot: subtracting f*0 leaves every value bit-identical (only the
// sign of a zero could differ, which no comparison or pivot choice observes),
// and the tableau stays sparse enough that the gather is a small fraction of
// the work of the hottest loop in the solver. In phase 2 the artificial
// columns are left out as well: they may not re-enter, nothing reads them
// again, and they are simply allowed to go stale.
func (t *tableau) pivot(prow, col int) {
	prowData := t.rows[prow]
	inv := 1 / prowData[col]
	deadFrom, deadTo := 0, 0
	if t.inPhase2 {
		deadFrom, deadTo = t.artStart, t.artStart+t.nart
	}
	nz := t.nz[:0]
	for j, pv := range prowData {
		if pv != 0 && (j < deadFrom || j >= deadTo) {
			prowData[j] = pv * inv
			nz = append(nz, int32(j))
		}
	}
	t.nz = nz
	prowData[col] = 1 // exact
	t.rhs[prow] *= inv

	for i := 0; i < t.m; i++ {
		if i == prow {
			continue
		}
		row := t.rows[i][:len(prowData)]
		f := row[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * prowData[j]
		}
		row[col] = 0 // exact
		t.rhs[i] -= f * t.rhs[prow]
		if t.rhs[i] < 0 && t.rhs[i] > -tol {
			t.rhs[i] = 0
		}
	}
	f := t.obj[col]
	if f != 0 {
		obj := t.obj[:len(prowData)]
		for _, j := range nz {
			obj[j] -= f * prowData[j]
		}
		obj[col] = 0
		t.objShif -= f * t.rhs[prow]
	}
	t.basis[prow] = col
}

// copyFrom makes t an independent replica of src: same basis, same rows,
// same spare capacity.
func (t *tableau) copyFrom(src *tableau) {
	bufs := t.tableauBufs
	*t = *src
	t.tableauBufs = bufs
	t.alloc(src.m+src.spare, src.stride)
	t.view()
	// Active rows are copied at full stride, which carries the still-zero
	// spare columns along; spare rows are cleared when addBound claims them.
	copy(t.flat[:t.m*t.stride], src.flat)
	copy(t.rhs, src.rhs)
	copy(t.basis, src.basis)
	copy(t.obj[:t.stride], src.obj[:src.stride])
	t.meta = t.meta[:copy(t.meta, src.meta)]
}

// addBound appends the bound Σ coef·x ≤ bound (LE) or ≥ bound (GE) over
// terms to an optimal tableau as one row expressed in the current basis, with
// a fresh slack column basic in it. Reduced costs are untouched, so the basis
// stays dual feasible; the new right-hand side is negative exactly when the
// current point violates the bound, which dualIterate then repairs. The
// caller has checked t.spare > 0.
func (t *tableau) addBound(terms []Term, sense Sense, bound float64) {
	r, c := t.m, t.ncols
	t.m++
	t.ncols++
	t.spare--
	t.view()
	row := t.flat[r*t.stride : (r+1)*t.stride]
	clear(row)
	row = row[:t.ncols]

	// The row in slack form is sgn·Σ coef·x + s = sgn·bound. Each basic x_v
	// is substituted out: if x_v is basic in row k, then
	// x_v = rhs[k] - Σ_j rows[k][j]·x_j over the nonbasic j.
	sgn := 1.0
	if sense == GE {
		sgn = -1.0
	}
	t.rhs[r] = sgn * bound
	for _, tm := range terms {
		a := sgn * tm.Coef
		k := -1
		for i, bv := range t.basis[:r] {
			if bv == tm.Var {
				k = i
				break
			}
		}
		if k < 0 {
			row[tm.Var] += a
			continue
		}
		for j, v := range t.rows[k][:c] {
			if v != 0 {
				row[j] -= a * v
			}
		}
		row[tm.Var] = 0 // exact: a basic column cancels
		t.rhs[r] -= a * t.rhs[k]
	}
	row[c] = 1
	t.basis[r] = c
}

// setRHS moves model row i's right-hand side to rhs by shifting the
// right-hand-side column along B⁻¹eᵢ, which the row's slack column carries.
// The caller has checked that the row has one (equality rows do not).
func (t *tableau) setRHS(i int, rhs float64) {
	mt := &t.meta[i]
	if d := mt.fac * (rhs - mt.rhs); d != 0 {
		for k, row := range t.rows {
			if a := row[mt.slack]; a != 0 {
				t.rhs[k] += d * a
			}
		}
	}
	mt.rhs = rhs
}

// dualIterate runs dual simplex pivots on a dual-feasible basis until the
// right-hand sides are non-negative again (optimal), a violated row has no
// negative entry to pivot on (infeasible), or the budget runs out. The
// leaving row is the most violated one; the entering column keeps every
// reduced cost non-negative (minimum ratio over the row's negative entries,
// larger pivot on ties), artificials barred. After a long run of pivots that
// leave the objective where it was, it switches to Bland's smallest-index
// rule, which guarantees termination.
func (t *tableau) dualIterate(maxIter int) iterStatus {
	stall := 0
	bland := false
	const stallLimit = 200
	artEnd := t.artStart + t.nart
	for {
		prow := -1
		worst := -tol
		for i, b := range t.rhs {
			// A row still holding an artificial is redundant (all zeros, at
			// level zero): rounding noise in it is not an infeasibility.
			if b >= -tol || (t.basis[i] >= t.artStart && t.basis[i] < artEnd) {
				continue
			}
			if bland {
				if prow < 0 || t.basis[i] < t.basis[prow] {
					prow = i
				}
			} else if b < worst {
				worst = b
				prow = i
			}
		}
		if prow < 0 {
			return optimal
		}
		if t.iters >= maxIter {
			return iterLimit
		}

		col := -1
		bestRatio, bestPiv := math.Inf(1), 0.0
		for j, a := range t.rows[prow] {
			if a >= -tol || (j >= t.artStart && j < artEnd) {
				continue
			}
			d := math.Max(t.obj[j], 0) // dual feasible up to tolerance
			ratio := d / -a
			switch {
			case ratio < bestRatio-tol:
				bestRatio, bestPiv, col = ratio, -a, j
			case !bland && ratio <= bestRatio+tol && -a > bestPiv:
				bestRatio, bestPiv, col = math.Min(bestRatio, ratio), -a, j
			}
		}
		if col < 0 {
			return infeasible
		}
		t.pivot(prow, col)
		t.iters++
		if bestRatio <= tol {
			stall++
			if stall >= stallLimit {
				bland = true
			}
		} else {
			stall = 0
			bland = false
		}
	}
}

// point writes the basic solution's structural values into x (len n, zeroed
// by the caller) and returns the objective in the problem's own direction.
func (t *tableau) point(x []float64) float64 {
	for i, bv := range t.basis {
		if bv < t.n {
			x[bv] = t.rhs[i]
		}
	}
	obj := 0.0
	for j, c := range t.cost {
		obj += c * x[j]
	}
	return obj
}
