package lp

// corpusProblems rebuilds the package's fixed test corpus: every hand-written
// problem from lp_test.go, spanning LE/GE/EQ rows, negative RHS
// normalization, degeneracy, redundancy, infeasibility, and unboundedness.
func corpusProblems() map[string]*Problem {
	out := map[string]*Problem{}

	p := NewProblem(2)
	p.Maximize = true
	p.Obj = []float64{3, 2}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Term{{0, 1}, {1, 3}}, LE, 6)
	out["max-two-vars"] = p

	p = NewProblem(2)
	p.Obj = []float64{0.6, 1}
	p.AddConstraint([]Term{{0, 10}, {1, 4}}, GE, 20)
	p.AddConstraint([]Term{{0, 5}, {1, 5}}, GE, 20)
	p.AddConstraint([]Term{{0, 2}, {1, 6}}, GE, 12)
	out["diet-ge"] = p

	p = NewProblem(2)
	p.Maximize = true
	p.Obj = []float64{1, 2}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 3)
	p.AddConstraint([]Term{{0, 1}}, LE, 2)
	out["equality"] = p

	p = NewProblem(1)
	p.Obj = []float64{1}
	p.AddConstraint([]Term{{0, 1}}, GE, 5)
	p.AddConstraint([]Term{{0, 1}}, LE, 3)
	out["infeasible"] = p

	p = NewProblem(2)
	p.Maximize = true
	p.Obj = []float64{1, 1}
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, LE, 1)
	out["unbounded"] = p

	p = NewProblem(2)
	p.Obj = []float64{0, 1}
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, LE, -1)
	out["neg-rhs-le"] = p

	p = NewProblem(2)
	p.Obj = []float64{1, 1}
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, EQ, -2)
	out["neg-rhs-eq"] = p

	p = NewProblem(1)
	p.Maximize = true
	p.Obj = []float64{1}
	p.AddConstraint([]Term{{0, 1}, {0, 2}}, LE, 6)
	out["duplicate-terms"] = p

	p = NewProblem(4)
	p.Obj = []float64{-0.75, 150, -0.02, 6}
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	out["beale"] = p

	p = NewProblem(2)
	p.Maximize = true
	p.Obj = []float64{1, 1}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 2)
	p.AddConstraint([]Term{{0, 2}, {1, 2}}, EQ, 4)
	out["redundant-eq"] = p

	p = NewProblem(0)
	out["zero-vars"] = p

	return out
}
