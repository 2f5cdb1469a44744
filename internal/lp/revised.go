package lp

import "math"

// Dense forces every solve through the dense tableau simplex, bypassing the
// sparse revised-simplex hot path. It is an escape hatch for debugging and
// for parity pinning in tests. The solver reads it once per solve; flip it
// only while no solves are in flight.
var Dense bool

// RevisedMinSize is the crossover at which the sparse revised simplex takes
// over from the dense tableau, measured as rows×columns of the normalized
// problem (slack and artificial columns included). Below it the dense
// tableau is used: on small problems its per-pivot row elimination is only a
// few thousand flops and its pivot arithmetic is the historical, bit-exact
// behavior the recorded serving goldens were captured under. Above it — the
// regime of multi-class fleet formulations, whose MILP subproblems carry
// thousands of rows — the revised path's sparse pricing wins by orders of
// magnitude. Set to 0 to force the revised path everywhere (tests do, to pin
// it against the dense solver on the full corpus).
var RevisedMinSize = 250_000

// The revised simplex keeps the constraint matrix in sparse column form and
// represents the basis inverse as a product of eta matrices (product-form
// inverse), one per pivot, each stored as a sparse column. Per iteration it
// prices by one BTRAN over the eta file plus sparse column dot products, and
// pivots by appending one eta — versus the dense tableau's O(m·ncols) row
// elimination. The allocator's formulations are wide and mostly zeros (a
// per-class capacity row touches only its class's replica columns, a
// prefix-consistency row only one path's flows), which keeps both the
// columns and the etas short.
//
// Column layout, row normalization (RHS ≥ 0, senses flipped), the initial
// slack/artificial basis, Dantzig pricing with the Bland fallback, and the
// smallest-basis-index ratio-test tie-break all mirror tableau.go, so the
// two solvers walk the same vertex sequence up to floating-point noise.
// Whenever the revised path has any doubt about its answer — unboundedness,
// an iteration-limit hit, or a final point that fails a feasibility re-check
// — it abandons the solve and SolveWS re-runs the dense tableau, so callers
// only ever observe a defensible solution.
type revised struct {
	m, n     int // constraint rows, structural variables
	nslack   int
	nart     int
	ncols    int
	artStart int
	tol      float64
	iters    int
	inPhase2 bool

	// Structural columns in compressed sparse column form. colPtr[j] is the
	// END of column j's entries; column j starts at colPtr[j-1] (0 for j=0).
	colPtr []int32
	colRow []int32
	colVal []float64
	// Slack and artificial columns are singletons, stored implicitly: slack
	// k lives in row slackRow[k] with coefficient slackSign[k]; artificial k
	// lives in row artRow[k] with coefficient +1.
	slackRow  []int32
	slackSign []float64
	artRow    []int32

	// Product-form inverse: B⁻¹ = E_k⁻¹·…·E_1⁻¹. Eta e pivots on row
	// etaRow[e] with pivot value etaPiv[e]; its off-pivot nonzeros live in
	// etaIdx/etaVal[etaPtr[e]:etaPtr[e+1]].
	etaRow []int32
	etaPiv []float64
	etaPtr []int32
	etaIdx []int32
	etaVal []float64

	xb    []float64 // current basic variable values (B⁻¹b)
	obj   []float64 // phase-2 structural costs (minimizing direction)
	y     []float64 // BTRAN scratch: y = c_B·B⁻¹
	d     []float64 // FTRAN scratch: d = B⁻¹·A_col
	basis []int     // basis[i] = column basic in row i
	inBas []bool    // per-column basic flag
}

// revisedBuffers holds the reusable working state of the revised simplex so
// repeated solves through one Workspace recycle allocations exactly like the
// dense tableau's buffers do.
type revisedBuffers struct {
	colPtr    []int32
	colRow    []int32
	colVal    []float64
	slackRow  []int32
	slackSign []float64
	artRow    []int32
	etaRow    []int32
	etaPiv    []float64
	etaPtr    []int32
	etaIdx    []int32
	etaVal    []float64
	xb        []float64
	obj       []float64
	y         []float64
	d         []float64
	basis     []int
	inBas     []bool
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	b = b[:n]
	clear(b)
	return b
}

func growInt(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

func growBool(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// revisedEligible reports whether the normalized problem is large enough for
// the revised path (rows×columns ≥ RevisedMinSize).
func revisedEligible(p *Problem) bool {
	if RevisedMinSize <= 0 {
		return true
	}
	m := len(p.Cons)
	ncols := p.NumVars
	for i := range p.Cons {
		s, _ := normalize(&p.Cons[i])
		if s != EQ {
			ncols++
		}
		if s != LE {
			ncols++
		}
	}
	return m*ncols >= RevisedMinSize
}

// solveRevised attempts the problem with the revised simplex. ok=false means
// the caller should fall back to the dense tableau (numerical doubt or an
// outcome the revised path does not certify); the returned solution is only
// meaningful when ok is true.
func solveRevised(p *Problem, tol float64, maxIter int, ws *Workspace) (*Solution, bool) {
	m := len(p.Cons)
	var rb *revisedBuffers
	var info []rowInfo
	if ws != nil {
		rb = &ws.rev
		info = ws.rowInfos(m)
	} else {
		rb = &revisedBuffers{}
		info = make([]rowInfo, m)
	}
	r := newRevised(p, tol, rb, info)
	defer r.saveEtas(rb)
	if maxIter == 0 {
		maxIter = 200*(r.m+r.ncols) + 2000
	}

	// Phase 1: minimize the sum of artificial variables.
	if r.nart > 0 {
		st := r.iterate(maxIter)
		if st != optimal {
			// iterLimit (and the impossible phase-1 unbounded): let the
			// dense path have the final word.
			return nil, false
		}
		if r.phase1Objective() > 1e-7 {
			return &Solution{Status: Infeasible, Iters: r.iters}, true
		}
		r.dropArtificials()
	}

	// Phase 2: the real objective.
	r.setPhase2Objective(p)
	switch r.iterate(maxIter) {
	case iterLimit:
		return nil, false
	case unbounded:
		// Certifying unboundedness needs an exact ray; defer to dense.
		return nil, false
	}

	var x []float64
	if ws != nil {
		x = ws.solution(p.NumVars)
	} else {
		x = make([]float64, p.NumVars)
	}
	for i, bv := range r.basis {
		if bv < p.NumVars {
			x[bv] = r.xb[i]
		}
	}
	if !pointFeasible(p, x) {
		return nil, false
	}
	obj := 0.0
	for j, c := range p.Obj {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iters: r.iters}, true
}

func newRevised(p *Problem, tol float64, rb *revisedBuffers, info []rowInfo) *revised {
	m := len(p.Cons)
	n := p.NumVars

	nslack, nart, nnz := 0, 0, 0
	for i := range p.Cons {
		s, sgn := normalize(&p.Cons[i])
		info[i] = rowInfo{sense: s, neg: sgn < 0}
		if s != EQ {
			nslack++
		}
		if s != LE {
			nart++
		}
		nnz += len(p.Cons[i].Terms)
	}

	r := &revised{
		m: m, n: n,
		nslack:   nslack,
		nart:     nart,
		ncols:    n + nslack + nart,
		artStart: n + nslack,
		tol:      tol,
	}

	r.colPtr = growI32(rb.colPtr, n)
	r.colRow = growI32(rb.colRow, nnz)
	r.colVal = growF64(rb.colVal, nnz)
	r.slackRow = growI32(rb.slackRow, nslack)
	r.slackSign = growF64(rb.slackSign, nslack)
	r.artRow = growI32(rb.artRow, nart)
	r.xb = growF64(rb.xb, m)
	r.obj = growF64(rb.obj, n)
	r.y = growF64(rb.y, m)
	r.d = growF64(rb.d, m)
	r.basis = growInt(rb.basis, m)
	r.inBas = growBool(rb.inBas, r.ncols)
	r.etaRow = rb.etaRow[:0]
	r.etaPiv = rb.etaPiv[:0]
	r.etaPtr = append(rb.etaPtr[:0], 0)
	r.etaIdx = rb.etaIdx[:0]
	r.etaVal = rb.etaVal[:0]
	rb.colPtr, rb.colRow, rb.colVal = r.colPtr, r.colRow, r.colVal
	rb.slackRow, rb.slackSign, rb.artRow = r.slackRow, r.slackSign, r.artRow
	rb.xb, rb.obj, rb.y, rb.d = r.xb, r.obj, r.y, r.d
	rb.basis, rb.inBas = r.basis, r.inBas

	// CSC build: count entries per structural column, prefix-sum to starts,
	// fill (advancing each column's cursor), leaving colPtr[j] = end(j).
	for _, c := range p.Cons {
		for _, t := range c.Terms {
			r.colPtr[t.Var]++
		}
	}
	run := int32(0)
	for j := 0; j < n; j++ {
		cnt := r.colPtr[j]
		r.colPtr[j] = run
		run += cnt
	}
	for i, c := range p.Cons {
		sgn := 1.0
		if info[i].neg {
			sgn = -1.0
		}
		for _, t := range c.Terms {
			pos := r.colPtr[t.Var]
			r.colRow[pos] = int32(i)
			r.colVal[pos] = sgn * t.Coef
			r.colPtr[t.Var] = pos + 1
		}
	}

	// Initial basis: slack for LE rows, artificial for GE/EQ rows — all unit
	// columns in distinct rows, so B = I and xb = normalized b.
	si, ai := 0, 0
	for i, c := range p.Cons {
		sgn := 1.0
		if info[i].neg {
			sgn = -1.0
		}
		r.xb[i] = sgn * c.RHS
		switch info[i].sense {
		case LE:
			r.slackRow[si] = int32(i)
			r.slackSign[si] = 1
			r.basis[i] = n + si
			si++
		case GE:
			r.slackRow[si] = int32(i)
			r.slackSign[si] = -1
			si++
			r.artRow[ai] = int32(i)
			r.basis[i] = r.artStart + ai
			ai++
		case EQ:
			r.artRow[ai] = int32(i)
			r.basis[i] = r.artStart + ai
			ai++
		}
		r.inBas[r.basis[i]] = true
	}
	return r
}

// saveEtas writes the (appendable) eta slices back to the workspace buffers
// so their grown capacity is recycled by the next solve.
func (r *revised) saveEtas(rb *revisedBuffers) {
	rb.etaRow, rb.etaPiv, rb.etaPtr = r.etaRow, r.etaPiv, r.etaPtr
	rb.etaIdx, rb.etaVal = r.etaIdx, r.etaVal
}

// colStart returns the first CSC index of structural column j.
func (r *revised) colStart(j int) int32 {
	if j == 0 {
		return 0
	}
	return r.colPtr[j-1]
}

// costOf returns the current phase's cost of a column (minimizing direction).
func (r *revised) costOf(col int) float64 {
	if r.inPhase2 {
		if col < r.n {
			return r.obj[col]
		}
		return 0
	}
	if col >= r.artStart {
		return 1
	}
	return 0
}

// phase1Objective returns the current sum of artificial variable values.
func (r *revised) phase1Objective() float64 {
	s := 0.0
	for i, bv := range r.basis {
		if bv >= r.artStart {
			s += r.xb[i]
		}
	}
	return s
}

// setPhase2Objective installs the caller's objective converted to
// minimization. Reduced costs are priced freshly from y = c_B·B⁻¹ each
// iteration, so no basis price-out pass is needed here.
func (r *revised) setPhase2Objective(p *Problem) {
	sgn := 1.0
	if p.Maximize {
		sgn = -1.0
	}
	for j, c := range p.Obj {
		r.obj[j] = sgn * c
	}
	r.inPhase2 = true
}

// applyEtasT applies the eta-file transposes to y in place (newest to
// oldest): y ← y·B⁻¹ for a y seeded with basic-position values.
func (r *revised) applyEtasT(y []float64) {
	for e := len(r.etaRow) - 1; e >= 0; e-- {
		row := r.etaRow[e]
		s := 0.0
		for k := r.etaPtr[e]; k < r.etaPtr[e+1]; k++ {
			s += r.etaVal[k] * y[r.etaIdx[k]]
		}
		y[row] = (y[row] - s) / r.etaPiv[e]
	}
}

// applyEtas applies the eta file to a column vector v in place (oldest to
// newest): v ← B⁻¹·v for a v seeded with the original column. Etas whose
// pivot position is zero in v are skipped — they cannot change it.
func (r *revised) applyEtas(v []float64) {
	for e := 0; e < len(r.etaRow); e++ {
		row := r.etaRow[e]
		vr := v[row]
		if vr == 0 {
			continue
		}
		vr /= r.etaPiv[e]
		v[row] = vr
		for k := r.etaPtr[e]; k < r.etaPtr[e+1]; k++ {
			v[r.etaIdx[k]] -= r.etaVal[k] * vr
		}
	}
}

// btran computes y = c_B·B⁻¹ for the current phase's costs.
func (r *revised) btran() {
	clear(r.y)
	for k := 0; k < r.m; k++ {
		if c := r.costOf(r.basis[k]); c != 0 {
			r.y[k] = c
		}
	}
	r.applyEtasT(r.y)
}

// reduced returns the reduced cost of a nonbasic column under the current y.
func (r *revised) reduced(j int) float64 {
	switch {
	case j < r.n:
		c := 0.0
		if r.inPhase2 {
			c = r.obj[j]
		}
		s := 0.0
		for k := r.colStart(j); k < r.colPtr[j]; k++ {
			s += r.colVal[k] * r.y[r.colRow[k]]
		}
		return c - s
	case j < r.artStart:
		k := j - r.n
		return -r.slackSign[k] * r.y[r.slackRow[k]]
	default:
		return 1 - r.y[r.artRow[j-r.artStart]]
	}
}

// chooseEntering mirrors the tableau's pricing: Dantzig most-negative (first
// index wins ties) or Bland first-negative, over structural and slack columns
// only once phase 2 bars the artificials. Basic columns are skipped — their
// reduced cost is exactly zero in the tableau, and skipping avoids selecting
// one through floating-point noise here.
func (r *revised) chooseEntering(bland bool) int {
	limit := r.ncols
	if r.inPhase2 {
		limit = r.artStart
	}
	r.btran()
	if bland {
		for j := 0; j < limit; j++ {
			if r.inBas[j] {
				continue
			}
			if r.reduced(j) < -r.tol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -r.tol
	for j := 0; j < limit; j++ {
		if r.inBas[j] {
			continue
		}
		if rc := r.reduced(j); rc < bestVal {
			bestVal = rc
			best = j
		}
	}
	return best
}

// ftran computes d = B⁻¹·A_col into r.d.
func (r *revised) ftran(col int) {
	clear(r.d)
	switch {
	case col < r.n:
		for k := r.colStart(col); k < r.colPtr[col]; k++ {
			r.d[r.colRow[k]] += r.colVal[k]
		}
	case col < r.artStart:
		k := col - r.n
		r.d[r.slackRow[k]] = r.slackSign[k]
	default:
		r.d[r.artRow[col-r.artStart]] = 1
	}
	r.applyEtas(r.d)
}

// chooseLeaving runs the ratio test over the FTRAN'd column, with the same
// smallest-basis-index tie-break as the tableau.
func (r *revised) chooseLeaving() int {
	bestRow := -1
	bestRatio := math.Inf(1)
	for i := 0; i < r.m; i++ {
		a := r.d[i]
		if a <= r.tol {
			continue
		}
		ratio := r.xb[i] / a
		if ratio < bestRatio-r.tol || (ratio < bestRatio+r.tol && (bestRow < 0 || r.basis[i] < r.basis[bestRow])) {
			bestRatio = ratio
			bestRow = i
		}
	}
	return bestRow
}

// pivotUpdate makes column col basic in row prow: the FTRAN'd column in r.d
// becomes one more eta of the product-form inverse, and xb is updated by the
// same elimination the tableau applies to its RHS column.
func (r *revised) pivotUpdate(prow, col int) {
	piv := r.d[prow]
	r.etaRow = append(r.etaRow, int32(prow))
	r.etaPiv = append(r.etaPiv, piv)
	xr := r.xb[prow] / piv
	r.xb[prow] = xr
	for i, di := range r.d {
		if di == 0 || i == prow {
			continue
		}
		r.etaIdx = append(r.etaIdx, int32(i))
		r.etaVal = append(r.etaVal, di)
		r.xb[i] -= di * xr
		if r.xb[i] < 0 && r.xb[i] > -r.tol {
			r.xb[i] = 0
		}
	}
	r.etaPtr = append(r.etaPtr, int32(len(r.etaIdx)))
	r.inBas[r.basis[prow]] = false
	r.basis[prow] = col
	r.inBas[col] = true
}

// dropArtificials pivots still-basic artificials (at zero level) out onto the
// first non-artificial column with a nonzero entry in their row, exactly as
// the tableau does before phase 2; redundant rows keep their artificial.
func (r *revised) dropArtificials() {
	for i := 0; i < r.m; i++ {
		if r.basis[i] < r.artStart {
			continue
		}
		// Row i of B⁻¹, via a BTRAN of the unit vector.
		rowi := r.y
		clear(rowi)
		rowi[i] = 1
		r.applyEtasT(rowi)
		pivCol := -1
		for j := 0; j < r.artStart; j++ {
			if r.inBas[j] {
				continue
			}
			v := 0.0
			if j < r.n {
				for k := r.colStart(j); k < r.colPtr[j]; k++ {
					v += r.colVal[k] * rowi[r.colRow[k]]
				}
			} else {
				k := j - r.n
				v = r.slackSign[k] * rowi[r.slackRow[k]]
			}
			if math.Abs(v) > r.tol {
				pivCol = j
				break
			}
		}
		if pivCol >= 0 {
			r.ftran(pivCol)
			r.pivotUpdate(i, pivCol)
		}
	}
}

// iterate runs pivots until optimality, unboundedness, or the iteration
// budget, with the tableau's exact Dantzig→Bland degeneracy escalation.
func (r *revised) iterate(maxIter int) iterStatus {
	stall := 0
	bland := false
	const stallLimit = 200
	for {
		if r.iters >= maxIter {
			return iterLimit
		}
		col := r.chooseEntering(bland)
		if col < 0 {
			return optimal
		}
		r.ftran(col)
		row := r.chooseLeaving()
		if row < 0 {
			return unbounded
		}
		degenerate := r.xb[row] <= r.tol
		r.pivotUpdate(row, col)
		r.iters++
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

// pointFeasible re-checks the candidate optimum against the original
// constraints — the revised path's safety net against product-form drift.
// A point that fails here sends the solve back through the dense tableau.
func pointFeasible(p *Problem, x []float64) bool {
	for _, xi := range x {
		if xi < -1e-6 {
			return false
		}
	}
	for _, c := range p.Cons {
		v := 0.0
		for _, t := range c.Terms {
			v += t.Coef * x[t.Var]
		}
		tol := 1e-6 * (1 + math.Abs(c.RHS))
		switch c.Sense {
		case LE:
			if v > c.RHS+tol {
				return false
			}
		case GE:
			if v < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(v-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}
