package core

import (
	"math"
	"slices"
	"sort"
)

// This file is the planner's greedy first pass: a priority-ordered O(n×m)
// solver over the same configuration-path model the MILPs use. It picks one
// config path per sink — consistent at shared tasks, so every consistency
// constraint holds by construction — and sizes replica counts by ceiling
// division, producing an integer-feasible point in the step model's exact
// column layout. solveStep hands that point to the branch and bound as a
// warm start (where the MILP's contract guarantees it never displaces an
// equally good search result), and the arbiter's greedy-replace budget can
// use the same machinery to refresh a barely-moved tenant's plan without any
// branch and bound at all.

// greedyAttemptBudget bounds the combo backtracking. One path per sink almost
// always succeeds on the first few candidates; the budget only matters on
// adversarial multi-sink graphs, where the greedy simply gives up and the
// MILP runs unseeded.
const greedyAttemptBudget = 2048

// greedySeed builds an integer-feasible point for the step's model at the
// given demand and this view's class counts, in m's column layout. It reads
// only the layout, so m need not have been set for the demand. It returns nil
// when no fitting path combination was found within the attempt budget;
// callers treat that as "no seed", never as proof of infeasibility.
// Deterministic for a given (demand, step, counts). The candidate order is
// cached on m (greedyCandidates), so callers hold st.mu.
func (a *Allocator) greedySeed(demand float64, step stepKind, m *stepModel) []float64 {
	return a.greedySearch(demand, step, m, a.greedyCandidates(demand, step, m))
}

// greedySearch is the depth-first combo search over each sink's candidates
// in order: one candidate per sink, consistent at shared tasks (identical
// config wherever a task appears), capacity-checked at the leaf. The first
// fitting combo in priority order wins.
func (a *Allocator) greedySearch(demand float64, step stepKind, m *stepModel, cands [][]int) []float64 {
	for _, c := range cands {
		if len(c) == 0 {
			return nil
		}
	}
	cfgOf := make([]int, len(a.byTask))
	for i := range cfgOf {
		cfgOf[i] = -1
	}
	chosen := make([]int, len(a.sinks))
	attempts := 0
	var pick func(s int) []float64
	pick = func(s int) []float64 {
		if s == len(a.sinks) {
			return a.greedyAssemble(demand, step, m, chosen)
		}
		for _, pi := range cands[s] {
			if attempts >= greedyAttemptBudget {
				return nil
			}
			attempts++
			ok := true
			for _, ci := range a.paths[pi].cfgs {
				if t := int(a.cfgs[ci].task); cfgOf[t] >= 0 && cfgOf[t] != ci {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var set []int
			for _, ci := range a.paths[pi].cfgs {
				if t := int(a.cfgs[ci].task); cfgOf[t] < 0 {
					cfgOf[t] = ci
					set = append(set, t)
				}
			}
			chosen[s] = pi
			if x := pick(s + 1); x != nil {
				return x
			}
			for _, t := range set {
				cfgOf[t] = -1
			}
		}
		return nil
	}
	return pick(0)
}

// greedyCandidates returns each sink's usable paths in the greedy pass's
// priority order at the given demand. Hardware steps chase the cheapest
// deployment (variants are already pinned to the most accurate by the
// usable mask), accuracy steps the most accurate path first, cost as
// tie-break; path index breaks remaining ties, so the order is total.
//
// A path's cost is demand times a demand-free sum, so the order is the same
// at every positive demand up to rounding. It is sorted once, at unit
// demand, and cached on m; each call recomputes the costs at its demand and
// only checks the cached order against them. Where rounding or a zero
// demand (every cost 0) reorders two neighbours, the call sorts afresh,
// so the result is always the order sorting at this demand gives.
func (a *Allocator) greedyCandidates(demand float64, step stepKind, m *stepModel) [][]int {
	fixedCost := step == stepHardware || step == stepHardwareSat
	if m.greedy == nil {
		m.greedy = a.sortCandidates(1, fixedCost, m)
	}
	for _, c := range m.greedy {
		costs := m.costs[:0]
		for _, pi := range c {
			x := a.pathCost(pi, demand)
			if math.IsNaN(x) {
				// Not an order at all: leave it to the stable sort.
				return a.sortCandidates(demand, fixedCost, m)
			}
			costs = append(costs, x)
		}
		m.costs = costs
		for k := 1; k < len(c); k++ {
			if !a.greedyBefore(fixedCost, c[k-1], c[k], costs[k-1], costs[k]) {
				return a.sortCandidates(demand, fixedCost, m)
			}
		}
	}
	return m.greedy
}

// sortCandidates stably sorts each sink's usable paths by greedyBefore at
// the given demand.
func (a *Allocator) sortCandidates(demand float64, fixedCost bool, m *stepModel) [][]int {
	cost := make([]float64, len(a.paths))
	cands := make([][]int, len(a.sinks))
	for s := range a.sinks {
		for _, pi := range a.pathsBySink[s] {
			if m.pathVar[pi] >= 0 {
				cands[s] = append(cands[s], pi)
				cost[pi] = a.pathCost(pi, demand)
			}
		}
		c := cands[s]
		sort.SliceStable(c, func(x, y int) bool {
			return a.greedyBefore(fixedCost, c[x], c[y], cost[c[x]], cost[c[y]])
		})
	}
	return cands
}

// greedyBefore reports whether path px precedes path py in the greedy
// pass's priority order, given their costs.
func (a *Allocator) greedyBefore(fixedCost bool, px, py int, cx, cy float64) bool {
	if !fixedCost && a.paths[px].acc != a.paths[py].acc {
		return a.paths[px].acc > a.paths[py].acc
	}
	if cx != cy {
		return cx < cy
	}
	return px < py
}

// pathCost is a path's estimated cost at full demand: fractional replicas
// weighted by class dollar rate on priced fleets. It orders candidates;
// exact integer sizing happens in greedyAssemble.
func (a *Allocator) pathCost(pi int, demand float64) float64 {
	pth := &a.paths[pi]
	c := 0.0
	for h, ci := range pth.cfgs {
		w := 1.0
		if a.priced {
			w = a.classes[a.cfgs[ci].class].CostPerHour + serverCostEps
		}
		c += w * demand * pth.mults[h] / a.cfgs[ci].qps
	}
	return c
}

// greedyAssemble sizes a chosen path combo into a full solution vector, or
// nil when no served fraction makes its replicas fit the per-class budgets.
func (a *Allocator) greedyAssemble(demand float64, step stepKind, m *stepModel, chosen []int) []float64 {
	saturating := step == stepSaturation || step == stepHardwareSat

	// The configs the combo deploys, in config order, with the demand
	// arriving at each at f=1. The combo is consistent at shared tasks, so
	// every chosen path that visits a config reports the same multiplier;
	// the first path's value stands.
	type cfgLoad struct {
		ci   int
		load float64
		n    int // replicas at the served fraction last tried
	}
	var used []cfgLoad
	onPath := make([]bool, len(a.byTask))
	for _, pi := range chosen {
		pth := &a.paths[pi]
	hops:
		for h, ci := range pth.cfgs {
			for _, u := range used {
				if u.ci == ci {
					continue hops
				}
			}
			used = append(used, cfgLoad{ci: ci, load: demand * pth.mults[h]})
			onPath[a.cfgs[ci].task] = true
		}
	}
	// Keep-warm coverage for tasks on no chosen path (side branches of a
	// sink served through a different task path): one replica of the task's
	// first usable config idles there.
	if a.Opts.KeepWarm {
		for t := range a.byTask {
			if onPath[t] {
				continue
			}
			for _, ci := range a.byTask[t] {
				if m.cfgVar[ci] >= 0 {
					used = append(used, cfgLoad{ci: ci})
					break
				}
			}
		}
	}
	slices.SortFunc(used, func(x, y cfgLoad) int { return x.ci - y.ci })

	// try sizes every deployed config for served fraction f and returns the
	// point, or nil when the replicas overflow a class budget.
	totals := make([]int, len(a.classes))
	try := func(f float64) []float64 {
		clear(totals)
		for i := range used {
			u := &used[i]
			c := &a.cfgs[u.ci]
			u.n = int(math.Ceil(f*u.load/c.qps - 1e-9))
			if u.n < 1 && a.Opts.KeepWarm {
				u.n = 1
			}
			if u.n < 0 {
				u.n = 0
			}
			totals[c.class] += u.n
		}
		for cl, n := range totals {
			if n > a.counts[cl] {
				return nil
			}
		}
		x := make([]float64, m.prob.NumVars)
		for _, u := range used {
			x[m.cfgVar[u.ci]] = float64(u.n)
		}
		x[m.fVar] = f
		for _, pi := range chosen {
			x[m.pathVar[pi]] = f
		}
		return x
	}

	if x := try(1); x != nil {
		return x
	}
	if !saturating {
		return nil
	}
	// Saturation: shrink the served fraction to the continuous capacity bound
	// of the tightest class, then walk down a little further if the ceilings
	// still overflow.
	f := 1.0
	for cl := range a.classes {
		r := 0.0
		for _, u := range used {
			if c := &a.cfgs[u.ci]; c.class == cl {
				r += u.load / c.qps
			}
		}
		if r > 0 {
			if fc := float64(a.counts[cl]) / r; fc < f {
				f = fc
			}
		}
	}
	for i := 0; i < 30 && f > 1e-9; i++ {
		if x := try(f); x != nil {
			return x
		}
		f *= 0.97
	}
	return nil
}

// GreedyPlanner is implemented by planners that can produce a feasible (not
// necessarily optimal) plan without running any branch and bound. The
// arbiter's greedy-replace budget consults it for tenants whose demand barely
// moved; planners without it simply always take the MILP path.
type GreedyPlanner interface {
	// GreedyAllocate returns a greedy plan under the given per-class caps
	// (nil caps means the planner's full cluster), or false when the greedy
	// pass found no fitting deployment — the caller falls back to the MILP.
	GreedyAllocate(demand float64, caps []int) (*Plan, bool)
}

// GreedyAllocate runs the greedy first pass as a standalone planner: hardware
// scaling if the demand fits at full accuracy, accuracy scaling otherwise. It
// never runs the saturation regime — a pool too small for even the greedy
// accuracy pass is a real contention event that deserves the full solver —
// and reports false in that case.
func (a *Allocator) GreedyAllocate(demand float64, caps []int) (*Plan, bool) {
	al := a
	if caps != nil {
		if err := a.checkCaps(caps); err != nil {
			return nil, false
		}
		al = a.Capped(caps)
	}
	d := al.provisioned(demand)
	st := al.state
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, step := range []stepKind{stepHardware, stepAccuracy} {
		m := al.modelFor(step)
		x := al.greedySeed(d, step, m)
		if x == nil {
			continue
		}
		plan := al.extractPlan(x, m, d, step)
		plan.SolveStats = SolveStats{Step: int(step), Greedy: true}
		st.greedyPlans++
		return plan, true
	}
	return nil, false
}
