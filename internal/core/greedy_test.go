package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"loki/internal/lp"
	"loki/internal/milp"
	"loki/internal/profiles"
)

// greedySeedFor sets the step's model for the demand and runs the greedy
// first pass against it, returning the model and the seed (nil when the
// greedy found no fitting combo).
func greedySeedFor(t *testing.T, a *Allocator, demand float64, step stepKind) (*stepModel, []float64) {
	t.Helper()
	st := a.state
	st.mu.Lock()
	defer st.mu.Unlock()
	m := a.modelFor(step)
	m.set(demand, a.counts)
	return m, a.greedySeed(demand, step, m)
}

// verifyModelPoint checks x against every constraint of the step model, the
// integrality of every replica-count variable, and the per-class server
// budgets.
func verifyModelPoint(t *testing.T, a *Allocator, m *stepModel, x []float64) {
	t.Helper()
	const tol = 1e-6
	if len(x) != m.prob.NumVars {
		t.Fatalf("seed has %d vars, model has %d", len(x), m.prob.NumVars)
	}
	for j, v := range x {
		if v < -tol {
			t.Fatalf("seed var %d negative: %v", j, v)
		}
	}
	totals := make([]int, len(a.classes))
	for ci, vi := range m.cfgVar {
		if vi < 0 {
			continue
		}
		v := x[vi]
		if math.Abs(v-math.Round(v)) > tol {
			t.Fatalf("replica count var %d not integral: %v", vi, v)
		}
		totals[a.cfgs[ci].class] += int(math.Round(v))
	}
	for cl, n := range totals {
		if n > a.counts[cl] {
			t.Fatalf("class %d uses %d replicas, budget %d", cl, n, a.counts[cl])
		}
	}
	for i, c := range m.prob.Cons {
		lhs := 0.0
		for _, tm := range c.Terms {
			lhs += tm.Coef * x[tm.Var]
		}
		ok := true
		switch c.Sense {
		case lp.LE:
			ok = lhs <= c.RHS+tol
		case lp.GE:
			ok = lhs >= c.RHS-tol
		default:
			ok = math.Abs(lhs-c.RHS) <= tol
		}
		if !ok {
			t.Fatalf("seed violates constraint %d: lhs=%v %v rhs=%v", i, lhs, c.Sense, c.RHS)
		}
	}
}

// The greedy first pass must only ever hand the branch and bound points that
// satisfy the step model exactly: every constraint, integral replica counts,
// and the per-class budgets. Covered across tree, chain, and heterogeneous
// fleets at several demands and steps.
func TestGreedySeedFeasible(t *testing.T) {
	allocs := []struct {
		name string
		a    *Allocator
	}{
		{"tree", treeAllocator(t, 20, 0.250)},
		{"chain", chainAllocator(t, 20, 0.250)},
		{"hetero", heteroTenant(t, "h", 0).Alloc.(*Allocator)},
	}
	steps := []stepKind{stepHardware, stepAccuracy, stepSaturation}
	seeded := 0
	for _, tc := range allocs {
		for _, d := range []float64{0, 35, 90, 180, 400, 900} {
			for _, step := range steps {
				m, x := greedySeedFor(t, tc.a, d, step)
				if x == nil {
					continue
				}
				seeded++
				verifyModelPoint(t, tc.a, m, x)
			}
		}
	}
	if seeded == 0 {
		t.Fatal("greedy produced no seed on any fixture — the warm start path is dead")
	}
}

// On proof-seeking searches the greedy warm start must never change the
// result: solving the hardware-scaling model with and without the seed has to
// return the identical status, objective, and solution vector. This is the
// contract solveStep relies on to keep recorded goldens bit-identical.
func TestGreedyWarmStartProofParity(t *testing.T) {
	a := treeAllocator(t, 20, 0.250)
	seeded := false
	for _, d := range []float64{40, 110, 230} {
		m, gx := greedySeedFor(t, a, d, stepHardware)
		if gx == nil {
			continue
		}
		seeded = true
		prob := &milp.Problem{LP: m.prob, Integer: m.integer}
		cold, err := milp.SolveWithOptions(prob, milp.Options{ObjIntegral: true})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := milp.SolveWithOptions(prob, milp.Options{
			ObjIntegral: true,
			WarmStarts:  [][]float64{gx},
		})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != milp.Optimal {
			t.Fatalf("demand %v: cold solve status %v, want proven optimal", d, cold.Status)
		}
		if warm.Status != cold.Status || warm.Objective != cold.Objective {
			t.Fatalf("demand %v: warm (%v, %v) differs from cold (%v, %v)",
				d, warm.Status, warm.Objective, cold.Status, cold.Objective)
		}
		if len(warm.X) != len(cold.X) {
			t.Fatalf("demand %v: solution lengths differ", d)
		}
		for j := range cold.X {
			if warm.X[j] != cold.X[j] {
				t.Fatalf("demand %v: x[%d] warm %v != cold %v", d, j, warm.X[j], cold.X[j])
			}
		}
	}
	if !seeded {
		t.Fatal("greedy produced no hardware-step seed at any demand")
	}
}

// A greedy plan is feasible but never proven optimal, so the MILP's plan can
// only ever match or beat it: on hardware scaling the solver must never use
// more servers than the greedy deployment. Equivalently, a greedy objective
// worse than the MILP's is never returned from the seeded solve. Also pins
// that standalone greedy plans are marked and capped correctly, and that the
// regular Allocate path never returns a greedy-only plan.
func TestGreedyPlanNeverBeatsMILP(t *testing.T) {
	a := treeAllocator(t, 20, 0.250)
	sawGreedy := false
	for _, d := range []float64{0, 40, 90, 180, 320} {
		gp, ok := a.GreedyAllocate(d, nil)
		if !ok {
			continue
		}
		sawGreedy = true
		if !gp.SolveStats.Greedy {
			t.Fatalf("demand %v: standalone greedy plan not marked Greedy", d)
		}
		sum := 0
		for cl, n := range gp.ServersByClass {
			if n > a.counts[cl] {
				t.Fatalf("demand %v: greedy plan uses %d servers of class %d, budget %d",
					d, n, cl, a.counts[cl])
			}
			sum += n
		}
		if sum != gp.ServersUsed {
			t.Fatalf("demand %v: ServersByClass sums to %d, ServersUsed %d", d, sum, gp.ServersUsed)
		}
		mp, err := a.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		if mp.SolveStats.Greedy {
			t.Fatalf("demand %v: Allocate returned a greedy-only plan", d)
		}
		if mp.Mode == HardwareScaling && gp.Mode == HardwareScaling &&
			mp.ServersUsed > gp.ServersUsed {
			t.Fatalf("demand %v: MILP plan uses %d servers, greedy found %d — the search returned a worse objective than its seed",
				d, mp.ServersUsed, gp.ServersUsed)
		}
	}
	if !sawGreedy {
		t.Fatal("GreedyAllocate never produced a plan")
	}

	// Caps are honored like Capped views: the greedy plan fits the cap, and
	// an absurd cap is rejected rather than violated.
	if gp, ok := a.GreedyAllocate(150, []int{12}); ok {
		if gp.ServersUsed > 12 {
			t.Fatalf("capped greedy plan uses %d servers, cap 12", gp.ServersUsed)
		}
	}
	if _, ok := a.GreedyAllocate(150, []int{12, 9}); ok {
		t.Fatal("greedy accepted a caps vector with the wrong class count")
	}
}

// The arbiter's greedy-replace budget, on a fleet cell: 12 chain tenants on
// 100 servers of 20/40/40 fast/mid/slow classes, each demand drifting ±4 % a
// round around 60 % of an even split — inside the 20 % move window, across
// cache buckets. Zero (the default) must keep the arbiter fully MILP-driven —
// bit-identical to the pre-greedy behavior — while a budget of one per
// tenant replaces barely-moved dirty tenants with greedy plans that still
// respect their grants, and over the six rounds after two warm-up ones runs
// at most a third of the MILP solves.
func TestArbiterGreedyReplaceBudget(t *testing.T) {
	g := profiles.TrafficChain()
	classes := []profiles.Class{{Name: "fast", Count: 20, Speed: 2}, {Name: "mid", Count: 40, Speed: 1}, {Name: "slow", Count: 40, Speed: 0.5}}
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
	// walk arbitrates the cell's eight rounds under the budget and returns
	// the MILP solves of the last six.
	walk := func(budget int) (m *MultiController, ts []*Tenant, solves int) {
		ts, level := make([]*Tenant, 12), make([]float64, 12)
		for i := range ts {
			meta := NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
			alloc, err := NewAllocator(meta, AllocatorOptions{Servers: 100, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30})
			if err != nil {
				t.Fatal(err)
			}
			ts[i], level[i] = &Tenant{Name: fmt.Sprint(i), Meta: meta, Alloc: alloc, RouteHeadroom: 0.30}, 16.8*100/12
		}
		m, err := NewMultiController(100, ts)
		if err != nil {
			t.Fatal(err)
		}
		m.GreedyReplaceBudget = budget
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 8; round++ {
			for i, tn := range ts {
				if round == 2 {
					solves -= tn.Alloc.(*Allocator).Perf().MILPSolves
				}
				for k := 0; k < 8; k++ {
					tn.Meta.ObserveDemand(level[i])
				}
				level[i] *= 1 + 0.08*rng.Float64() - 0.04
			}
			if err := m.Step(true); err != nil {
				t.Fatal(err)
			}
			grants := m.Grants()
			for i, tn := range ts {
				plan := m.PlanOf(i)
				if plan == nil {
					t.Fatalf("budget %d, round %d: tenant %s has no plan", budget, round, tn.Name)
				}
				if plan.ServersUsed > grants[i] {
					t.Fatalf("budget %d, round %d: tenant %s plan uses %d servers, grant %d",
						budget, round, tn.Name, plan.ServersUsed, grants[i])
				}
			}
		}
		for _, tn := range ts {
			solves += tn.Alloc.(*Allocator).Perf().MILPSolves
		}
		return m, ts, solves
	}

	m0, t0, off := walk(0)
	if n := m0.GreedyReplaced(); n != 0 {
		t.Fatalf("budget 0 produced %d greedy replacements, want none", n)
	}
	for i := range t0 {
		if plan := m0.PlanOf(i); plan.SolveStats.Greedy {
			t.Fatalf("budget 0: tenant %d holds a greedy plan", i)
		}
	}

	m1, t1, on := walk(12)
	if n := m1.GreedyReplaced(); n == 0 {
		t.Fatal("positive budget never replaced a plan greedily")
	}
	greedyPlans := 0
	for _, tn := range t1 {
		greedyPlans += tn.Alloc.(*Allocator).Perf().greedyPlans
	}
	if greedyPlans == 0 {
		t.Fatal("GreedyReplaced > 0 but no allocator counted a greedy plan")
	}
	if off == 0 || 3*on > off {
		t.Fatalf("%d MILP solves with a budget of one per tenant, %d with none; want at least one and a third or fewer", on, off)
	}
}

// referenceGreedyOrder is the greedy pass's candidate order computed the way
// it was before the order was cached on the step model: every usable path
// costed at the call's demand, each sink's candidates stably sorted by
// (accuracy unless the step fixes the variants, cost, path index).
func referenceGreedyOrder(a *Allocator, demand float64, step stepKind, m *stepModel) [][]int {
	fixedCost := step == stepHardware || step == stepHardwareSat
	cost := make([]float64, len(a.paths))
	for pi := range a.paths {
		if m.pathVar[pi] < 0 {
			continue
		}
		pth := &a.paths[pi]
		c := 0.0
		for h, ci := range pth.cfgs {
			w := 1.0
			if a.priced {
				w = a.classes[a.cfgs[ci].class].CostPerHour + serverCostEps
			}
			c += w * demand * pth.mults[h] / a.cfgs[ci].qps
		}
		cost[pi] = c
	}
	cands := make([][]int, len(a.sinks))
	for s := range a.sinks {
		for _, pi := range a.pathsBySink[s] {
			if m.pathVar[pi] >= 0 {
				cands[s] = append(cands[s], pi)
			}
		}
		c := cands[s]
		sort.SliceStable(c, func(x, y int) bool {
			px, py := c[x], c[y]
			if !fixedCost && a.paths[px].acc != a.paths[py].acc {
				return a.paths[px].acc > a.paths[py].acc
			}
			if cost[px] != cost[py] {
				return cost[px] < cost[py]
			}
			return px < py
		})
	}
	return cands
}

// The candidate order cached on the step model is the order the per-call
// sort gives, and the greedy pass returns the point it returned: on the two
// paper pipelines, the 3-class fleet chain and a priced 2-class pool, at
// zero demand and on a grid past each pool's capacity, for every step, on
// the full pool and on capped views.
func TestGreedyOrderMatchesPerCallSort(t *testing.T) {
	priced := heteroTenant(t, "priced", 0).Alloc.(*Allocator)
	if !priced.priced {
		t.Fatal("the 2-class fixture is not priced")
	}
	fixtures := []struct {
		name string
		a    *Allocator
		top  float64 // past the pool's capacity
	}{
		{"traffic-analysis", pinAllocator(t, "traffic-analysis"), 3000},
		{"social-media", pinAllocator(t, "social-media"), 7000},
		{"fleet-chain", pinAllocator(t, "fleet-chain"), 60000},
		{"priced-2class", priced, 1200},
	}
	demands := func(top float64) []float64 {
		ds := []float64{0, 1e-3, 0.5, 1}
		for d := 2.0; d < top; d *= 1.37 {
			ds = append(ds, d, d*1.003)
		}
		return append(ds, top)
	}
	steps := []stepKind{stepHardware, stepAccuracy, stepSaturation, stepHardwareSat}
	rng := rand.New(rand.NewSource(5))
	seeded := 0
	for _, fx := range fixtures {
		views := []*Allocator{fx.a}
		for len(views) < 3 {
			caps := make([]int, len(fx.a.counts))
			for cl, n := range fx.a.counts {
				caps[cl] = rng.Intn(n + 1)
			}
			if fx.a.CheckCaps(caps) == nil {
				views = append(views, fx.a.Capped(caps))
			}
		}
		for _, al := range views {
			for _, step := range steps {
				for _, d := range demands(fx.top) {
					st := al.state
					st.mu.Lock()
					m := al.modelFor(step)
					want := referenceGreedyOrder(al, d, step, m)
					got := al.greedyCandidates(d, step, m)
					wantX := al.greedySearch(d, step, m, want)
					gotX := al.greedySeed(d, step, m)
					st.mu.Unlock()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s caps %v step %d demand %v: candidate order differs from the per-call sort",
							fx.name, al.counts, step, d)
					}
					if !samePoint(gotX, wantX) {
						t.Fatalf("%s caps %v step %d demand %v: greedy point %v, per-call sort gives %v",
							fx.name, al.counts, step, d, gotX, wantX)
					}
					if gotX != nil {
						seeded++
					}
				}
			}
		}
	}
	if seeded == 0 {
		t.Fatal("no fixture produced a greedy point")
	}
}

// samePoint reports whether two solution vectors are identical bit for bit
// (both nil counts as identical).
func samePoint(x, y []float64) bool {
	if (x == nil) != (y == nil) || len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
