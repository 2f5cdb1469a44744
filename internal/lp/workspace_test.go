package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomProblem builds a feasible-ish random LP with mixed senses.
func randomProblem(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem(n)
	p.Maximize = rng.Intn(2) == 0
	for j := 0; j < n; j++ {
		p.Obj[j] = rng.Float64()*4 - 2
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, 3)
		for k := 0; k < 3; k++ {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: rng.Float64()*2 - 0.5})
		}
		sense := Sense(rng.Intn(3))
		rhs := rng.Float64() * 10
		if sense == GE {
			rhs = rng.Float64() // keep GE rows satisfiable
		}
		p.AddConstraint(terms, sense, rhs)
	}
	// A box keeps everything bounded so maximization cannot run away.
	for j := 0; j < n; j++ {
		p.AddConstraint([]Term{{Var: j, Coef: 1}}, LE, 50)
	}
	return p
}

// TestWorkspaceSolvesBitIdentical checks that solving through a shared
// Workspace — including a workspace previously used on differently-shaped
// problems — reproduces the fresh-allocation solver bit for bit: same
// status, same pivots, same objective, same primal point.
func TestWorkspaceSolvesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := &Workspace{}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		m := 1 + rng.Intn(8)
		p := randomProblem(rng, n, m)

		fresh, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := SolveWS(p, Options{}, ws)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Status != reused.Status || fresh.Iters != reused.Iters {
			t.Fatalf("trial %d: status/iters diverged: fresh %v/%d, ws %v/%d",
				trial, fresh.Status, fresh.Iters, reused.Status, reused.Iters)
		}
		if fresh.Status != Optimal {
			continue
		}
		if fresh.Objective != reused.Objective {
			t.Fatalf("trial %d: objective diverged: %v vs %v", trial, fresh.Objective, reused.Objective)
		}
		for j := range fresh.X {
			if fresh.X[j] != reused.X[j] {
				t.Fatalf("trial %d: x[%d] diverged: %v vs %v", trial, j, fresh.X[j], reused.X[j])
			}
		}
	}
}

// TestWorkspaceSolutionIsOwned documents the aliasing contract: the X of a
// workspace solve is only valid until the next solve through the same
// workspace.
func TestWorkspaceSolutionIsOwned(t *testing.T) {
	p := NewProblem(1)
	p.Maximize = true
	p.Obj = []float64{1}
	p.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 3)

	ws := &Workspace{}
	s1, err := SolveWS(p, Options{}, ws)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]float64(nil), s1.X...)

	q := NewProblem(1)
	q.Maximize = true
	q.Obj = []float64{1}
	q.AddConstraint([]Term{{Var: 0, Coef: 1}}, LE, 7)
	if _, err := SolveWS(q, Options{}, ws); err != nil {
		t.Fatal(err)
	}
	if keep[0] != 3 {
		t.Fatalf("copied solution changed: %v", keep)
	}
	if s1.X[0] == 3 {
		t.Fatalf("expected s1.X to be clobbered by the second solve (got %v); the ownership contract is load-bearing", s1.X)
	}
}

// TestWorkspaceSteadyStateAllocs checks the point of the workspace: repeat
// solves of the same problem shape allocate almost nothing (only the
// Solution header).
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 12, 8)
	ws := &Workspace{}
	if _, err := SolveWS(p, Options{}, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := SolveWS(p, Options{}, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("steady-state solve allocates %v objects per run, want ≤ 4", allocs)
	}

	// A warm node — fork the solved tableau, bound a variable on each side of
	// its value the way branch and bound evaluates two children, swap back —
	// allocates nothing at all once both tableaus have grown.
	sol, err := SolveWS(p, Options{}, ws)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("reference solve: %v, %v", sol, err)
	}
	v, at := 0, 0.0
	for j, x := range sol.X {
		if x > at {
			v, at = j, x
		}
	}
	unit := []Term{{Var: v, Coef: 1}}
	children := func() {
		ws.Fork()
		if _, ok := ws.Bound(unit, GE, at/2+1, Options{}); !ok {
			t.Fatal("Bound refused on a warm workspace")
		}
		ws.Swap()
		ws.Fork()
		if _, ok := ws.Bound(unit, LE, at/2, Options{}); !ok {
			t.Fatal("Bound refused on a warm workspace")
		}
		ws.Swap()
	}
	children()
	if allocs := testing.AllocsPerRun(50, children); allocs != 0 {
		t.Fatalf("a warm node allocates %v objects, want 0", allocs)
	}
}

// TestSetRHSMatchesCold pins the right-hand-side re-optimisation to the cold
// solver: moving the right-hand sides of inequality rows on a retained
// tableau must give the status and objective of solving the changed problem
// from scratch, and equality rows must be refused.
func TestSetRHSMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := &Workspace{}
	checked := 0
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 2+rng.Intn(10), 1+rng.Intn(8))
		base, err := SolveWS(p, Options{}, ws)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			continue
		}
		var rows []int
		var rhs []float64
		for i, c := range p.Cons {
			if c.Sense != EQ && rng.Intn(3) == 0 {
				rows = append(rows, i)
				rhs = append(rhs, c.RHS+rng.Float64()*6-3)
			}
		}
		for i, c := range p.Cons {
			if c.Sense == EQ {
				if _, ok := ws.SetRHS([]int{i}, []float64{c.RHS}, Options{}); ok {
					t.Fatalf("trial %d: SetRHS accepted equality row %d", trial, i)
				}
			}
		}
		warm, ok := ws.SetRHS(rows, rhs, Options{})
		if !ok {
			t.Fatalf("trial %d: SetRHS refused inequality rows %v", trial, rows)
		}
		q := p.Clone()
		for k, i := range rows {
			q.Cons[i].RHS = rhs[k]
		}
		cold, err := Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm %v, cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			checked++
			if math.Abs(warm.Objective-cold.Objective) > 1e-7 {
				t.Fatalf("trial %d: warm objective %.12g, cold %.12g", trial, warm.Objective, cold.Objective)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d trials compared optimal objectives", checked)
	}
}
