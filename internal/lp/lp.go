// Package lp implements a simplex solver for linear programs on a dense
// tableau, with dual-simplex re-optimisation of a solved tableau.
//
// The solver handles problems of the form
//
//	minimize (or maximize)  cᵀx
//	subject to              aᵢᵀx {≤,=,≥} bᵢ   for every constraint i
//	                        x ≥ 0
//
// Upper bounds and general variable bounds are expressed as ordinary
// constraints by the caller when a problem is solved from scratch.
//
// A solve from scratch is two-phase primal simplex on the dense tableau
// (tableau.go) — a Phase-1 artificial-variable start, Dantzig pricing, and an
// automatic switch to Bland's rule when the pivot sequence degenerates, which
// guarantees termination.
//
// A solve through a Workspace leaves its optimal tableau behind, with spare
// rows and columns. A neighbouring problem — one more bound on a variable or
// on a sum of variables (Workspace.Bound), or different right-hand sides
// (Workspace.SetRHS) — is then not solved again: the change is written into
// the tableau in its current basis, which stays dual feasible, and the dual
// simplex pivots until the right-hand sides are non-negative again, typically
// a handful of pivots where a fresh solve takes hundreds. Branch and bound (internal/milp)
// evaluates its child nodes this way and solves from scratch only to restart.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Term is a single coefficient of a linear expression.
type Term struct {
	Var  int     // variable index in [0, NumVars)
	Coef float64 // coefficient
}

// Constraint is one linear constraint of a Problem. Terms may mention a
// variable more than once; coefficients are summed.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a linear program over NumVars non-negative variables.
// The zero value is an empty problem; use AddConstraint and SetObjectiveTerm
// (or fill the fields directly) to populate it.
type Problem struct {
	NumVars  int
	Maximize bool      // objective direction; false means minimize
	Obj      []float64 // dense objective, len NumVars (nil means all-zero)
	Cons     []Constraint
}

// NewProblem returns an empty problem over n non-negative variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, Obj: make([]float64, n)}
}

// SetObjectiveTerm sets the objective coefficient of variable v.
func (p *Problem) SetObjectiveTerm(v int, c float64) {
	if p.Obj == nil {
		p.Obj = make([]float64, p.NumVars)
	}
	p.Obj[v] = c
}

// AddConstraint appends the constraint Σ terms {sense} rhs and returns its
// row index.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) int {
	p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: sense, RHS: rhs})
	return len(p.Cons) - 1
}

// Clone returns a deep copy of the problem. The term slices of individual
// constraints are shared (they are never mutated by the solver), but the
// constraint list and objective are copied, so the clone may gain additional
// constraints without affecting the original.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		NumVars:  p.NumVars,
		Maximize: p.Maximize,
		Obj:      append([]float64(nil), p.Obj...),
		Cons:     append([]Constraint(nil), p.Cons...),
	}
	return q
}

// status reports the outcome of a solve.
type status int8

// Solve outcomes.
const (
	Optimal    status = iota // an optimal basic feasible solution was found
	Infeasible               // the constraints admit no solution
	Unbounded                // the objective is unbounded over the feasible set
	IterLimit                // the iteration budget was exhausted
)

// String names the status.
func (s status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    status
	X         []float64 // primal values, len NumVars (valid when Status == Optimal)
	Objective float64   // objective value in the problem's own direction
	Iters     int       // simplex pivots performed across both phases

	// ws and stamp name the workspace tableau that produced the solution,
	// for Workspace.Holds.
	ws    *Workspace
	stamp uint64
}

// Options tunes the solver.
type Options struct {
	// MaxIter bounds total pivots. Zero means 200*(rows+cols)+2000.
	MaxIter int
}

// tol is the solver's feasibility and optimality tolerance.
const tol = 1e-9

// errBadProblem reports a structurally invalid problem (e.g. a term indexing
// a variable outside [0, NumVars)).
var errBadProblem = errors.New("lp: malformed problem")

// Solve solves the problem with default options.
func Solve(p *Problem) (*Solution, error) {
	return solveWithOptions(p, Options{})
}

// solveWithOptions solves the problem.
func solveWithOptions(p *Problem, opt Options) (*Solution, error) {
	return SolveWS(p, opt, nil)
}

// SolveWS solves the problem using the given Workspace for the solver's
// working state. It runs the exact same pivot sequence as solveWithOptions —
// the workspace only recycles buffers — so results are bit-identical. When
// ws is non-nil the returned Solution's X slice is owned by the workspace
// and is only valid until the next solve through it; callers that keep the
// point must copy it. A nil ws allocates fresh buffers (and a fresh X).
//
// A solve through ws that ends Optimal leaves its tableau for the workspace's
// warm operations; any other outcome drops the one it held.
func SolveWS(p *Problem, opt Options, ws *Workspace) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	t := newTableau(p, ws)
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 200*(t.m+t.ncols) + 2000
	}

	// Phase 1: minimize the sum of artificial variables.
	if t.nart > 0 {
		st := t.iterate(maxIter)
		if st == iterLimit {
			return &Solution{Status: IterLimit, Iters: t.iters}, nil
		}
		// st cannot be unbounded in phase 1 (objective bounded below by 0).
		if t.objVal() > 1e-7 {
			return &Solution{Status: Infeasible, Iters: t.iters}, nil
		}
		t.dropArtificials()
	}

	// Phase 2: the real objective.
	t.setPhase2Objective(p)
	st := t.iterate(maxIter)
	switch st {
	case iterLimit:
		return &Solution{Status: IterLimit, Iters: t.iters}, nil
	case unbounded:
		return &Solution{Status: Unbounded, Iters: t.iters}, nil
	}

	sol := &Solution{Status: Optimal, Iters: t.iters}
	if ws != nil {
		sol.X = ws.solution(p.NumVars)
		// The optimal tableau stays behind for Bound and SetRHS.
		t.valid = true
		sol.ws, sol.stamp = ws, ws.restamp()
	} else {
		sol.X = make([]float64, p.NumVars)
	}
	sol.Objective = t.point(sol.X)
	return sol, nil
}

func validate(p *Problem) error {
	if p.NumVars < 0 {
		return fmt.Errorf("%w: negative NumVars", errBadProblem)
	}
	if p.Obj != nil && len(p.Obj) != p.NumVars {
		return fmt.Errorf("%w: objective has %d coefficients for %d variables", errBadProblem, len(p.Obj), p.NumVars)
	}
	for i, c := range p.Cons {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return fmt.Errorf("%w: constraint %d references variable %d (have %d)", errBadProblem, i, t.Var, p.NumVars)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("%w: constraint %d has non-finite coefficient", errBadProblem, i)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("%w: constraint %d has non-finite RHS", errBadProblem, i)
		}
	}
	return nil
}
