package milp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"loki/internal/lp"
)

func allInt(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 9, a,b,c ∈ {0,1}.
	// Best: a=1, b=1, c=1 → weight 9, value 30.
	p := lp.NewProblem(3)
	p.Maximize = true
	p.Obj = []float64{10, 13, 7}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 3}, {Var: 1, Coef: 4}, {Var: 2, Coef: 2}}, lp.LE, 9)
	for j := 0; j < 3; j++ {
		p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, 1)
	}
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(3)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-30) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 30 (x=%v)", r.Status, r.Objective, r.X)
	}
}

func TestFractionalLPRoundsDown(t *testing.T) {
	// max x s.t. 2x <= 5, x integer → x = 2.
	p := lp.NewProblem(1)
	p.Maximize = true
	p.Obj = []float64{1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}}, lp.LE, 5)
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 2", r.Status, r.Objective)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := lp.NewProblem(1)
	p.Maximize = true
	p.Obj = []float64{1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.GE, 0.4)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 0.6)
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", r.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := lp.NewProblem(1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.GE, 2)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 1)
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", r.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := lp.NewProblem(1)
	p.Maximize = true
	p.Obj = []float64{1}
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != unbounded {
		t.Fatalf("got %v, want unbounded", r.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer, y continuous, x + y <= 3.5, x <= 2.2 →
	// x = 2, y = 1.5, obj 5.5.
	p := lp.NewProblem(2)
	p.Maximize = true
	p.Obj = []float64{2, 1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 3.5)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 2.2)
	r, err := SolveWithOptions(&Problem{LP: p, Integer: []bool{true, false}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-5.5) > 1e-6 {
		t.Fatalf("got %v obj %g (x=%v), want optimal 5.5", r.Status, r.Objective, r.X)
	}
	if math.Abs(r.X[0]-2) > 1e-9 {
		t.Fatalf("integer variable not integral: %v", r.X)
	}
}

func TestMinimizationDirection(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 3.5, integers → x=0, y=4 costs 8;
	// x=1,y=3 → 9; x=2,y=2 → 10; x=3,y=1→11... best is y=4 → 8.
	// But also x=0,y=4 =8 vs x=1,y=3=9; optimum 8? y only:
	// 2*4=8. And x=0,y=4 feasible (4>=3.5). Want 8.
	p := lp.NewProblem(2)
	p.Obj = []float64{3, 2}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.GE, 3.5)
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-8) > 1e-6 {
		t.Fatalf("got %v obj %g (x=%v), want optimal 8", r.Status, r.Objective, r.X)
	}
}

func TestSeedIncumbentIsUsed(t *testing.T) {
	// Seed the optimum; the solver should terminate optimal with it even
	// with a node budget of 1 per branch direction.
	p := lp.NewProblem(1)
	p.Maximize = true
	p.Obj = []float64{1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}}, lp.LE, 5)
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(1)}, Options{Incumbent: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 2", r.Status, r.Objective)
	}
}

func TestInfeasibleSeedIsRejected(t *testing.T) {
	p := lp.NewProblem(1)
	p.Maximize = true
	p.Obj = []float64{1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}}, lp.LE, 5)
	// Seed violates the constraint; solver must ignore it and still find 2.
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(1)}, Options{Incumbent: []float64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 2", r.Status, r.Objective)
	}
}

func TestNodeLimitReturnsFeasibleOrNoSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 14
	p := lp.NewProblem(n)
	p.Maximize = true
	p.Obj = make([]float64, n)
	terms := make([]lp.Term, n)
	for j := 0; j < n; j++ {
		p.Obj[j] = 1 + rng.Float64()
		terms[j] = lp.Term{Var: j, Coef: 1 + 2*rng.Float64()}
		p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, 1)
	}
	p.AddConstraint(terms, lp.LE, float64(n)/3)
	r, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(n)}, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status == Optimal {
		t.Skip("solved within 3 nodes; nothing to assert")
	}
	if r.Status != Feasible && r.Status != noSolution {
		t.Fatalf("got %v, want feasible/no-solution under node limit", r.Status)
	}
}

// TestIterLimitIsTruncation: a node relaxation that runs out of simplex
// iterations is a resource limit like the clock or the node budget — the
// subtree under it goes unexplored — so the result must say Truncated, both
// when the root itself hits the limit and when a deeper node does.
func TestIterLimitIsTruncation(t *testing.T) {
	p := hardKnapsack(rand.New(rand.NewSource(6)), 24)
	root, err := lp.Solve(p.LP)
	if err != nil || root.Status != lp.Optimal {
		t.Fatalf("root relaxation: %v, %v", root, err)
	}
	solve := func(maxIter int) *result {
		r, err := SolveWithOptions(p, Options{LPOptions: lp.Options{MaxIter: maxIter}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	if r := solve(1); r.Status != noSolution || !r.Truncated() {
		t.Fatalf("root hit the iteration limit: got %v truncated=%v, want no-solution truncated", r.Status, r.Truncated())
	}
	// One pivot more than the root needs lets the root through and stops
	// the cold solves of deeper nodes, which carry more rows.
	if r := solve(root.Iters + 1); r.Status == Optimal || !r.Truncated() {
		t.Fatalf("deeper nodes hit the iteration limit: got %v truncated=%v, want an unproven truncated result", r.Status, r.Truncated())
	}
	if r := solve(0); r.Status != Optimal || r.Truncated() {
		t.Fatalf("default iteration budget: got %v truncated=%v, want optimal", r.Status, r.Truncated())
	}
}

// TestPivotBudgetTruncates: a search that spends its MaxLPIters pivots
// before it finds an integer point stops with no solution, marked truncated,
// after at least the budget's pivots; unbudgeted, the same search proves the
// problem integer-infeasible.
func TestPivotBudgetTruncates(t *testing.T) {
	// 2x + 2y + 2z = 13 has no integer point, but every relaxation with a
	// free column does, so only the whole tree proves it.
	p := lp.NewProblem(3)
	for j := 0; j < 3; j++ {
		p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, 7)
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 2}, {Var: 1, Coef: 2}, {Var: 2, Coef: 2}}, lp.EQ, 13)
	prob := &Problem{LP: p, Integer: allInt(3)}
	full, err := SolveWithOptions(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Infeasible || full.Truncated() {
		t.Fatalf("unbudgeted: got %v truncated=%v, want integer-infeasible", full.Status, full.Truncated())
	}
	budget := full.LPIters / 2
	r, err := SolveWithOptions(prob, Options{MaxLPIters: budget})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != noSolution || !r.Truncated() || r.LPIters < budget {
		t.Fatalf("budget of %d pivots (the proof takes %d): got %v truncated=%v after %d pivots, want no solution, truncated, at least %d pivots",
			budget, full.LPIters, r.Status, r.Truncated(), r.LPIters, budget)
	}
}

func TestTimeLimitHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	p := lp.NewProblem(n)
	p.Maximize = true
	p.Obj = make([]float64, n)
	terms := make([]lp.Term, n)
	for j := 0; j < n; j++ {
		p.Obj[j] = 1 + rng.Float64()
		terms[j] = lp.Term{Var: j, Coef: 1 + 2*rng.Float64()}
		p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, 1)
	}
	p.AddConstraint(terms, lp.LE, float64(n)/2.5)
	start := time.Now()
	_, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(n)}, Options{TimeLimit: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("time limit grossly exceeded: %v", elapsed)
	}
}

// bruteForceILP enumerates all integer points in [0,ub]^n.
func bruteForceILP(p *lp.Problem, ub int) (float64, bool) {
	n := p.NumVars
	x := make([]float64, n)
	best := math.Inf(-1)
	if !p.Maximize {
		best = math.Inf(1)
	}
	found := false
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for _, c := range p.Cons {
				lhs := 0.0
				for _, t := range c.Terms {
					lhs += t.Coef * x[t.Var]
				}
				switch c.Sense {
				case lp.LE:
					if lhs > c.RHS+1e-9 {
						return
					}
				case lp.GE:
					if lhs < c.RHS-1e-9 {
						return
					}
				case lp.EQ:
					if math.Abs(lhs-c.RHS) > 1e-9 {
						return
					}
				}
			}
			obj := 0.0
			for k, c := range p.Obj {
				obj += c * x[k]
			}
			found = true
			if p.Maximize {
				best = math.Max(best, obj)
			} else {
				best = math.Min(best, obj)
			}
			return
		}
		for v := 0; v <= ub; v++ {
			x[j] = float64(v)
			rec(j + 1)
		}
	}
	rec(0)
	return best, found
}

// randomGroups draws one to three column groups over p's variables: each
// two or more distinct variables with integer coefficients in [-2, 2] \ {0}.
func randomGroups(rng *rand.Rand, p *lp.Problem) [][]lp.Term {
	groups := make([][]lp.Term, 1+rng.Intn(3))
	for g := range groups {
		for _, v := range rng.Perm(p.NumVars)[:2+rng.Intn(p.NumVars-1)] {
			c := float64(1 + rng.Intn(2))
			if rng.Intn(3) == 0 {
				c = -c
			}
			groups[g] = append(groups[g], lp.Term{Var: v, Coef: c})
		}
	}
	return groups
}

// agreesWithBruteForce solves the pure-integer program p, whose variables
// are bounded by ub, branching on groups first, and compares the outcome with
// exhaustive enumeration.
func agreesWithBruteForce(t *testing.T, seed int64, p *lp.Problem, groups [][]lp.Term, ub int) (*result, bool) {
	prob := &Problem{LP: p, Integer: allInt(p.NumVars), Groups: groups}
	r, err := SolveWithOptions(prob, Options{})
	if err != nil {
		t.Logf("seed %d: %v", seed, err)
		return nil, false
	}
	// A pivot budget one above what the search spends never stops it: the
	// budgeted search is the same search, bit for bit.
	if b, err := SolveWithOptions(prob, Options{MaxLPIters: r.LPIters + 1}); err != nil || !reflect.DeepEqual(b, r) {
		t.Logf("seed %d: with a budget of %d pivots got %+v (%v), unbudgeted %+v", seed, r.LPIters+1, b, err, r)
		return r, false
	}
	want, found := bruteForceILP(p, ub)
	switch r.Status {
	case Optimal:
		if !found {
			t.Logf("seed %d: solver optimal %g, brute force found nothing", seed, r.Objective)
			return r, false
		}
		if math.Abs(r.Objective-want) > 1e-5 {
			t.Logf("seed %d: solver %g vs brute force %g (x=%v)", seed, r.Objective, want, r.X)
			return r, false
		}
	case Infeasible:
		if found {
			t.Logf("seed %d: solver infeasible, brute force found %g", seed, want)
			return r, false
		}
	default:
		t.Logf("seed %d: unexpected status %v", seed, r.Status)
		return r, false
	}
	return r, true
}

// TestAgainstBruteForceILP cross-checks branch and bound against exhaustive
// enumeration on random small pure-integer programs, each solved once
// branching on columns only and once with random column groups.
func TestAgainstBruteForceILP(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3) // 2..4 vars
		ub := 3
		p := lp.NewProblem(n)
		p.Maximize = rng.Intn(2) == 0
		p.Obj = make([]float64, n)
		for j := range p.Obj {
			p.Obj[j] = float64(rng.Intn(13) - 6)
		}
		for j := 0; j < n; j++ {
			p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, float64(ub))
		}
		extra := 1 + rng.Intn(3)
		for i := 0; i < extra; i++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				if c := rng.Intn(9) - 4; c != 0 {
					terms = append(terms, lp.Term{Var: j, Coef: float64(c)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(terms, lp.Sense(rng.Intn(3)), float64(rng.Intn(17)-4))
		}
		if _, ok := agreesWithBruteForce(t, seed, p, nil, ub); !ok {
			return false
		}
		groups := randomGroups(rand.New(rand.NewSource(^seed)), p)
		if _, ok := agreesWithBruteForce(t, seed, p, groups, ub); !ok {
			t.Logf("seed %d: with groups %v", seed, groups)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}

	// Deep instances: an equality knapsack over six variables in [0,7] with
	// two-digit coprime-ish weights and values that track them. The
	// relaxation is fractional in one variable at a time and the equality
	// row is hit by few integer points, so plunges run past the sixteen bound
	// rows a tableau can absorb and the search has to restart from cold node
	// solves — the path the small instances above never reach.
	restarts, groupRestarts := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, ub := 6, 7
		p := lp.NewProblem(n)
		p.Maximize = true
		terms := make([]lp.Term, n)
		sum := 0.0
		for j := 0; j < n; j++ {
			w := float64(11 + rng.Intn(40))
			p.Obj[j] = w + float64(rng.Intn(3))
			terms[j] = lp.Term{Var: j, Coef: w}
			sum += w * float64(ub)
			p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, float64(ub))
		}
		p.AddConstraint(terms, lp.EQ, math.Floor(sum/2)+1)
		r, ok := agreesWithBruteForce(t, seed, p, nil, ub)
		if !ok {
			t.Fatalf("deep instance %d disagrees with brute force", seed)
		}
		restarts += r.coldBranchings
		groups := randomGroups(rand.New(rand.NewSource(^seed)), p)
		if r, ok = agreesWithBruteForce(t, seed, p, groups, ub); !ok {
			t.Fatalf("deep instance %d with groups %v disagrees with brute force", seed, groups)
		}
		groupRestarts += r.coldBranchings
	}
	if restarts == 0 || groupRestarts == 0 {
		t.Fatalf("cold restarts %d without groups, %d with: a deep instance should exhaust the tableau's spare bound rows either way", restarts, groupRestarts)
	}
}

// TestWarmPivotCapFallsBackToColdSolves: with warm child evaluations capped
// at one pivot, every child that needs more is handed back to a cold solve,
// and the search still proves the optimum the uncapped search proves.
func TestWarmPivotCapFallsBackToColdSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	retries := 0
	for trial := 0; trial < 10; trial++ {
		p := hardKnapsack(rng, 12+rng.Intn(8))
		if trial%2 == 1 {
			p.Groups = randomGroups(rng, p.LP)
			for _, g := range p.Groups {
				for k := range g {
					g[k].Coef = 1
				}
			}
		}
		full, err := SolveWithOptions(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		capped, err := solve(p, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != Optimal || capped.Status != Optimal || capped.Truncated() {
			t.Fatalf("trial %d: uncapped %v, capped %v truncated=%v; want both optimal", trial, full.Status, capped.Status, capped.Truncated())
		}
		if math.Abs(capped.Objective-full.Objective) > 1e-9 {
			t.Fatalf("trial %d: capped objective %v, uncapped %v", trial, capped.Objective, full.Objective)
		}
		retries += capped.warmRetries
	}
	if retries == 0 {
		t.Fatal("no warm child hit the one-pivot cap")
	}
}

// TestGroupsMustBeIntegral: a group over a continuous column, or with a
// fractional coefficient, has no integral sum to branch on.
func TestGroupsMustBeIntegral(t *testing.T) {
	p := lp.NewProblem(2)
	p.Maximize = true
	p.Obj = []float64{1, 1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 2.5)
	for _, g := range [][]lp.Term{
		{{Var: 0, Coef: 1}, {Var: 1, Coef: 0.5}},
		{{Var: 0, Coef: 1}, {Var: 2, Coef: 1}},
	} {
		if _, err := SolveWithOptions(&Problem{LP: p, Integer: allInt(2), Groups: [][]lp.Term{g}}, Options{}); err == nil {
			t.Errorf("group %v accepted", g)
		}
	}
	if _, err := SolveWithOptions(&Problem{LP: p, Integer: []bool{true, false}, Groups: [][]lp.Term{{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}}}, Options{}); err == nil {
		t.Error("group over a continuous column accepted")
	}
}

func BenchmarkKnapsack20(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	p := lp.NewProblem(n)
	p.Maximize = true
	p.Obj = make([]float64, n)
	terms := make([]lp.Term, n)
	for j := 0; j < n; j++ {
		p.Obj[j] = 1 + rng.Float64()*9
		terms[j] = lp.Term{Var: j, Coef: 1 + rng.Float64()*9}
		p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, 1)
	}
	p.AddConstraint(terms, lp.LE, 25)
	prob := &Problem{LP: p, Integer: allInt(n)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveWithOptions(prob, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
