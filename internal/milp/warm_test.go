package milp

import (
	"math"
	"math/rand"
	"testing"

	"loki/internal/lp"
)

// hardKnapsack builds an n-item knapsack whose LP relaxation is fractional
// almost everywhere, so branch and bound has real work to do.
func hardKnapsack(rng *rand.Rand, n int) *Problem {
	p := lp.NewProblem(n)
	p.Maximize = true
	terms := make([]lp.Term, n)
	capSum := 0.0
	for j := 0; j < n; j++ {
		w := 1 + rng.Float64()*9
		p.Obj[j] = w + rng.Float64() // value correlated with weight → weak bounds
		terms[j] = lp.Term{Var: j, Coef: w}
		capSum += w
	}
	p.AddConstraint(terms, lp.LE, capSum/2)
	for j := 0; j < n; j++ {
		p.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.LE, 1)
	}
	return &Problem{LP: p, Integer: allInt(n)}
}

// TestWarmStartPreservesProvenResults is the warm-start parity contract: on
// searches that run to their deterministic end, seeding with feasible (even
// optimal) warm starts must not change the returned solution at all.
func TestWarmStartPreservesProvenResults(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		p := hardKnapsack(rng, 10+rng.Intn(6))
		cold, err := SolveWithOptions(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal {
			t.Fatalf("trial %d: cold solve not optimal: %v", trial, cold.Status)
		}

		// Three seeds: the all-zero point (weak), a greedy point, and the
		// cold optimum itself (ties must prefer the search's own result,
		// which for an identical search is the same point).
		zero := make([]float64, p.LP.NumVars)
		greedy := make([]float64, p.LP.NumVars)
		greedy[0] = 1
		warm, err := SolveWithOptions(p, Options{
			WarmStarts: [][]float64{zero, greedy, cold.X},
		})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || warm.Objective != cold.Objective {
			t.Fatalf("trial %d: warm result diverged: %v obj %v, cold %v obj %v",
				trial, warm.Status, warm.Objective, cold.Status, cold.Objective)
		}
		for j := range cold.X {
			if cold.X[j] != warm.X[j] {
				t.Fatalf("trial %d: warm incumbent differs at %d: %v vs %v", trial, j, warm.X[j], cold.X[j])
			}
		}
		if warm.Nodes > cold.Nodes {
			t.Fatalf("trial %d: warm start explored more nodes (%d) than cold (%d)", trial, warm.Nodes, cold.Nodes)
		}
	}
}

// TestWarmStartSurfacesOnTruncation checks the anytime half of the
// contract: when a limit truncates the search before it finds anything as
// good, the best feasible warm start is returned.
func TestWarmStartSurfacesOnTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := hardKnapsack(rng, 26)
	full, err := SolveWithOptions(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("reference solve not optimal: %v", full.Status)
	}

	// MaxNodes 1 explores only the root: the search has no incumbent of its
	// own, so the warm start must come back.
	warm, err := SolveWithOptions(p, Options{
		MaxNodes:   1,
		WarmStarts: [][]float64{full.X},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Feasible {
		t.Fatalf("truncated warm solve: got %v, want Feasible", warm.Status)
	}
	if warm.Objective != full.Objective {
		t.Fatalf("truncated warm solve returned %v, want the warm start's %v", warm.Objective, full.Objective)
	}

	// Without the warm start the same truncation has nothing to return.
	bare, err := SolveWithOptions(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Status != noSolution {
		t.Fatalf("truncated bare solve: got %v, want NoSolution", bare.Status)
	}
}

// TestWarmStartRejectsBadSeeds: wrong-length, infeasible, and fractional
// seeds are dropped silently.
func TestWarmStartRejectsBadSeeds(t *testing.T) {
	p := lp.NewProblem(2)
	p.Maximize = true
	p.Obj = []float64{3, 2}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 4)
	prob := &Problem{LP: p, Integer: allInt(2)}

	r, err := SolveWithOptions(prob, Options{
		WarmStarts: [][]float64{
			{1},        // wrong length
			{9, 0},     // violates the row
			{0.5, 0.5}, // fractional
			{-1, 0},    // negative
			nil,        // nil candidate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-12) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 12", r.Status, r.Objective)
	}
}

// TestStallCutoffStopsPlateauedSearch: with the stall armed after a few
// pivots and a one-node plateau window, a hard instance stops almost
// immediately and reports Feasible with whatever incumbent it has, for the
// stall and at the same node every time: the arming point is counted work,
// not time.
func TestStallCutoffStopsPlateauedSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := hardKnapsack(rng, 24)

	full, err := SolveWithOptions(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, p.LP.NumVars)
	opts := Options{WarmStarts: [][]float64{zero}, StallNodes: 1, StallAfterIters: 50}
	stalled, err := SolveWithOptions(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stalled.Status != Feasible || stalled.stop != stopStall {
		t.Fatalf("stalled solve: got %v stopped by %v, want Feasible stopped by the stall", stalled.Status, stalled.stop)
	}
	if stalled.Nodes >= full.Nodes || stalled.LPIters < opts.StallAfterIters {
		t.Fatalf("stall did not cut the search at its arming point: %d nodes, %d pivots vs full %d nodes (armed at %d pivots)",
			stalled.Nodes, stalled.LPIters, full.Nodes, opts.StallAfterIters)
	}
	for i := 0; i < 3; i++ {
		again, err := SolveWithOptions(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.Nodes != stalled.Nodes || again.LPIters != stalled.LPIters || again.stop != stopStall {
			t.Fatalf("repeat %d: stopped at %d nodes, %d pivots (%v), the first run at %d nodes, %d pivots",
				i, again.Nodes, again.LPIters, again.stop, stalled.Nodes, stalled.LPIters)
		}
	}

	// Zero StallNodes disables the cutoff entirely.
	off, err := SolveWithOptions(p, Options{StallAfterIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Status != Optimal || off.stop != stopProof {
		t.Fatalf("stall-disabled solve: got %v stopped by %v, want Optimal by proof", off.Status, off.stop)
	}
}

// BenchmarkMILPSolve measures one branch-and-bound solve of a fractional
// knapsack (a stand-in for the allocator's step MILPs), cold versus seeded
// with the optimum as a warm start, with allocations reported — the
// shared-model node solver should allocate almost nothing per node.
func BenchmarkMILPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	p := hardKnapsack(rng, 18)
	full, err := SolveWithOptions(p, Options{})
	if err != nil {
		b.Fatal(err)
	}
	// pivots/node and nodes/solve are counts, not timings: the instance is
	// proof-terminated, so they repeat exactly from run to run.
	effort := func(b *testing.B, r *result) {
		b.ReportMetric(float64(r.LPIters)/float64(r.Nodes), "pivots/node")
		b.ReportMetric(float64(r.Nodes), "nodes/solve")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var r *result
		for i := 0; i < b.N; i++ {
			if r, err = SolveWithOptions(p, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		effort(b, r)
	})
	b.Run("warm", func(b *testing.B) {
		opts := Options{WarmStarts: [][]float64{full.X}}
		b.ReportAllocs()
		var r *result
		for i := 0; i < b.N; i++ {
			if r, err = SolveWithOptions(p, opts); err != nil {
				b.Fatal(err)
			}
		}
		effort(b, r)
	})
}
