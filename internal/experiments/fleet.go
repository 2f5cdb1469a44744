package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"loki/internal/core"
	"loki/internal/profiles"
	"loki/internal/stack"
)

// The fleet experiment measures the planner's scaling story end to end: a
// MultiController arbitration round — the desire pass, contention handling,
// and grant assembly over every tenant — timed across a grid of pool sizes,
// tenant counts, and hardware-class counts, with the greedy-replace budget on
// versus off. This is the regime the incremental re-solve path, the greedy
// first pass, and the sparse LP core were built for: at 1,000 servers and 24
// tenants a round must stay under 100 ms at p95, and the greedy budget must
// cut branch-and-bound invocations at least 3× against the MILP-only arbiter
// on the identical demand walk.

// FleetConfig parameterizes the grid: {100, 400, 1000} servers × {4, 12, 24}
// tenants × {1, 3} hardware classes, 12 measured arbitration rounds per cell
// after 2 warm-up rounds that absorb the cold solves.
type FleetConfig struct {
	Seed   int64
	SLOSec float64
	// Quick shrinks the grid to {100} × {4, 12} × {1, 3} with 6 rounds for
	// CI smoke passes.
	Quick bool
}

// fleetCell is one grid point's measurements. The latency percentiles cover
// the measured rounds of the greedy-enabled arm; the MILP-solve counters
// compare the two arms over the identical demand walk.
type fleetCell struct {
	servers int
	tenants int
	classes int

	p50Millis float64
	p95Millis float64
	maxMillis float64

	// milpSolves counts branch-and-bound invocations across the measured
	// rounds with the greedy-replace budget armed; milpSolvesNoGreedy the
	// same walk with the budget off (the pre-greedy arbiter).
	milpSolves         int
	milpSolvesNoGreedy int
	solveReduction     float64

	// greedyHitRate is the fraction of dirty-tenant refreshes the greedy
	// pass served without any branch and bound.
	greedyHitRate  float64
	allocsPerRound float64
}

// fleetResult is the full grid.
type fleetResult struct {
	cells []fleetCell
}

// fleetClasses builds a cell's hardware classes: one uniform class, or a
// 20/40/40 fast/mid/slow split whose speed-weighted capacity equals the
// uniform fleet (0.2×2.0 + 0.4×1.0 + 0.4×0.5 = 1.0). Costs stay zero so the
// planner runs in the unpriced regime the greedy warm start seeds.
func fleetClasses(servers, classes int) []profiles.Class {
	if classes <= 1 {
		return profiles.DefaultClasses(servers)
	}
	fast := servers / 5
	mid := 2 * servers / 5
	return []profiles.Class{
		{Name: "fast", Count: fast, Speed: 2.0},
		{Name: "mid", Count: mid, Speed: 1.0},
		{Name: "slow", Count: servers - fast - mid, Speed: 0.5},
	}
}

// fleetController stands up one cell: T chain-pipeline tenants sharing an
// S-server pool, each planned by its own serving-stack allocator (the
// arbiter's parallel desire pass relies on tenants owning distinct solvers).
// The controller alone is measured, so no engine is built.
func fleetController(servers, tenants, classes int, sloSec float64, budget int) (*core.MultiController, []*core.Tenant, error) {
	rc := RunConfig{Classes: fleetClasses(servers, classes), sloSec: sloSec, solveTimeLimit: 2 * time.Second}
	rc.defaults()
	s := stack.New(rc.pool())
	ts := make([]*core.Tenant, tenants)
	for i := range ts {
		alloc, err := s.Allocator(profiles.TrafficChain(), rc.sloSec)
		if err != nil {
			return nil, nil, err
		}
		ts[i] = &core.Tenant{Name: fmt.Sprintf("t%02d", i), Meta: alloc.Meta, Alloc: alloc, RouteHeadroom: s.Headroom}
	}
	m, err := core.NewMultiController(servers, ts)
	if err != nil {
		return nil, nil, err
	}
	m.GreedyReplaceBudget = budget
	return m, ts, nil
}

// fleetWalk drives one arm through the cell's demand walk and returns the
// per-round wall times of the measured rounds plus counter deltas. The walk
// is a seeded ±4% random drift around each tenant's base demand — inside the
// 20% greedy-replace window, across the 1.04 fine cache buckets, and over a
// 1.2 arbiter bucket boundary every few rounds — the steady-state fleet
// regime where most tenants are clean and the dirty ones barely moved.
func fleetWalk(m *core.MultiController, ts []*core.Tenant, seed int64, rounds int) (roundMillis []float64, milpSolves, allocates, greedyReplaced int, allocsPerRound float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	base := make([]float64, len(ts))
	level := make([]float64, len(ts))
	for i := range ts {
		// ~60% of an even pool split, converted through the chain pipeline's
		// ≈28 QPS per speed-1.0 server, so desires stay uncontended and the
		// round cost isolates the planning path.
		base[i] = 16.8 * float64(m.Pool()) / float64(len(ts))
		level[i] = base[i]
	}
	observe := func() {
		for i, t := range ts {
			for k := 0; k < 8; k++ { // converge the EWMA onto the target
				t.Meta.ObserveDemand(level[i])
			}
		}
	}
	drift := func() {
		for i := range level {
			level[i] *= 1 + 0.08*rng.Float64() - 0.04
			if level[i] < 0.5*base[i] {
				level[i] = 0.5 * base[i]
			}
			if level[i] > 1.5*base[i] {
				level[i] = 1.5 * base[i]
			}
		}
	}
	perf := func() (solves int) {
		for _, t := range ts {
			solves += t.Alloc.(*core.Allocator).Perf().MILPSolves
		}
		return solves
	}

	for w := 0; w < 2; w++ { // warm-up: cold solves + bucket state
		observe()
		if err = m.Step(true); err != nil {
			return
		}
		drift()
	}

	solves0, alloc0, greedy0 := perf(), m.Allocates(), m.GreedyReplaced()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	for r := 0; r < rounds; r++ {
		observe()
		t0 := time.Now()
		if err = m.Step(true); err != nil {
			return
		}
		roundMillis = append(roundMillis, float64(time.Since(t0).Nanoseconds())/1e6)
		drift()
	}
	runtime.ReadMemStats(&ms)
	milpSolves = perf() - solves0
	allocates = m.Allocates() - alloc0
	greedyReplaced = m.GreedyReplaced() - greedy0
	allocsPerRound = float64(ms.Mallocs-mallocs0) / float64(rounds)
	return
}

// Fleet runs the grid. Each cell runs the identical seeded demand walk twice:
// once with the greedy-replace budget covering every tenant and once with it
// off, so the MILP-solve reduction is an apples-to-apples count.
func Fleet(cfg FleetConfig) (*fleetResult, error) {
	servers, tenants, rounds := []int{100, 400, 1000}, []int{4, 12, 24}, 12
	if cfg.Quick {
		servers, tenants, rounds = []int{100}, []int{4, 12}, 6
	}

	res := &fleetResult{}
	for _, s := range servers {
		for _, t := range tenants {
			for _, c := range []int{1, 3} {
				cell := fleetCell{servers: s, tenants: t, classes: c}

				m, ts, err := fleetController(s, t, c, cfg.SLOSec, t)
				if err != nil {
					return nil, err
				}
				millis, solves, allocates, greedy, allocs, err := fleetWalk(m, ts, cfg.Seed, rounds)
				if err != nil {
					return nil, err
				}
				sort.Float64s(millis)
				cell.p50Millis = percentile(millis, 0.50)
				cell.p95Millis = percentile(millis, 0.95)
				cell.maxMillis = millis[len(millis)-1]
				cell.milpSolves = solves
				cell.allocsPerRound = allocs
				if refreshed := allocates + greedy; refreshed > 0 {
					cell.greedyHitRate = float64(greedy) / float64(refreshed)
				}

				m2, ts2, err := fleetController(s, t, c, cfg.SLOSec, 0)
				if err != nil {
					return nil, err
				}
				_, solvesOff, _, _, _, err := fleetWalk(m2, ts2, cfg.Seed, rounds)
				if err != nil {
					return nil, err
				}
				cell.milpSolvesNoGreedy = solvesOff
				switch {
				case solves > 0:
					cell.solveReduction = float64(solvesOff) / float64(solves)
				case solvesOff > 0:
					// Greedy arm needed no MILP at all: report the count it
					// saved as the ratio floor.
					cell.solveReduction = float64(solvesOff)
				default:
					cell.solveReduction = 1
				}

				res.cells = append(res.cells, cell)
			}
		}
	}
	return res, nil
}

// percentile reads the p-quantile from an ascending slice (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// FormatFleet renders the grid.
func FormatFleet(r *fleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %8s %8s %9s %9s %9s %7s %9s %9s %11s %10s\n",
		"servers", "tenants", "classes", "p50(ms)", "p95(ms)", "max(ms)",
		"milp", "milp-off", "reduce(x)", "greedy-hit", "allocs/rd")
	for _, c := range r.cells {
		fmt.Fprintf(&b, "%8d %8d %8d %9.2f %9.2f %9.2f %7d %9d %9.1f %10.0f%% %10.0f\n",
			c.servers, c.tenants, c.classes, c.p50Millis, c.p95Millis, c.maxMillis,
			c.milpSolves, c.milpSolvesNoGreedy, c.solveReduction,
			100*c.greedyHitRate, c.allocsPerRound)
	}
	worst := worstCell(r)
	if worst != nil {
		fmt.Fprintf(&b, "\nlargest cell (%d×%d×%d): round p95 %.2f ms (target < 100 ms), MILP solves %d vs %d greedy-disabled (%.1f×)\n",
			worst.servers, worst.tenants, worst.classes,
			worst.p95Millis, worst.milpSolves, worst.milpSolvesNoGreedy, worst.solveReduction)
	}
	return b.String()
}

// worstCell returns the grid's largest cell (the acceptance target).
func worstCell(r *fleetResult) *fleetCell {
	var w *fleetCell
	for i := range r.cells {
		c := &r.cells[i]
		if w == nil || c.servers*c.tenants*c.classes > w.servers*w.tenants*w.classes {
			w = c
		}
	}
	return w
}
