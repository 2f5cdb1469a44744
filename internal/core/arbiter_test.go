package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"loki/internal/profiles"
)

func arbiterTenant(t *testing.T, name string, pool int, minShare float64) *Tenant {
	t.Helper()
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := NewAllocator(meta, AllocatorOptions{
		Servers:        pool,
		NetLatencySec:  0.002,
		KeepWarm:       true,
		Headroom:       0.30,
		SolveTimeLimit: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Tenant{Name: name, Meta: meta, Alloc: alloc, MinShare: minShare, RouteHeadroom: 0.30}
}

// splitPool: floors bind under contention, leftover goes to the hungry
// proportionally, and the result never exceeds the pool.
func TestSplitPool(t *testing.T) {
	cases := []struct {
		pool   int
		wants  []int
		floors []int
		want   []int
	}{
		// Both hungry beyond their floors: floors hold.
		{20, []int{20, 20}, []int{10, 10}, []int{10, 10}},
		// One idle: the hungry tenant takes the idle guarantee.
		{20, []int{20, 3}, []int{10, 10}, []int{17, 3}},
		// Uneven floors.
		{20, []int{18, 18}, []int{14, 6}, []int{14, 6}},
		// Leftover split proportionally to unmet want (12 vs 2 over 8 spare).
		{24, []int{20, 10}, []int{8, 8}, []int{15, 9}},
		// Three tenants, one idle.
		{30, []int{25, 25, 2}, []int{10, 10, 10}, []int{14, 14, 2}},
	}
	for i, c := range cases {
		got := splitPool(c.pool, c.wants, c.floors)
		total := 0
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: splitPool(%d, %v, floors %v) = %v, want %v",
					i, c.pool, c.wants, c.floors, got, c.want)
				break
			}
			total += got[j]
		}
		if total > c.pool {
			t.Errorf("case %d: grants %v exceed pool %d", i, got, c.pool)
		}
	}
}

// A spike in one tenant steals the idle tenant's unused servers on the next
// adaptation round, and hands them back when the spike subsides.
func TestJointAllocationStealsIdleAndReturns(t *testing.T) {
	const pool = 20
	a := arbiterTenant(t, "a", pool, 0.5)
	b := arbiterTenant(t, "b", pool, 0.5)
	m, err := NewMultiController(pool, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}

	// Quiet start: both small.
	a.Meta.ObserveDemand(100)
	b.Meta.ObserveDemand(100)
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	quiet := m.Grants()
	if quiet[0]+quiet[1] > pool {
		t.Fatalf("quiet grants %v exceed pool", quiet)
	}

	// a spikes far beyond its 10-server guarantee while b idles.
	for i := 0; i < 12; i++ {
		a.Meta.ObserveDemand(1800)
	}
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	spiked := m.Grants()
	if spiked[0] <= pool/2 {
		t.Fatalf("spike did not steal idle servers: grants %v (floors %v)", spiked, m.Floors())
	}
	if spiked[0]+spiked[1] > pool {
		t.Fatalf("spiked grants %v exceed pool", spiked)
	}
	if plan := m.PlanOf(0); plan.ServersUsed > spiked[0] {
		t.Fatalf("tenant a plan uses %d servers beyond its %d grant", plan.ServersUsed, spiked[0])
	}
	if m.RoutesOf(0) == nil || m.RoutesOf(1) == nil {
		t.Fatal("routes missing after joint step")
	}

	// Spike subsides: the grant shrinks back.
	for i := 0; i < 12; i++ {
		a.Meta.ObserveDemand(100)
	}
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	after := m.Grants()
	if after[0] >= spiked[0] {
		t.Fatalf("grant did not shrink after the spike: %v → %v", spiked, after)
	}
}

// Under joint contention both tenants hold their guaranteed floors and the
// constrained re-solves stay inside the grants.
func TestJointContentionRespectsFloors(t *testing.T) {
	const pool = 20
	a := arbiterTenant(t, "a", pool, 0.5)
	b := arbiterTenant(t, "b", pool, 0.5)
	m, err := NewMultiController(pool, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		a.Meta.ObserveDemand(2500)
		b.Meta.ObserveDemand(2500)
	}
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	g := m.Grants()
	if g[0] != pool/2 || g[1] != pool/2 {
		t.Fatalf("contended grants %v, want equal floors %d", g, pool/2)
	}
	for i := 0; i < 2; i++ {
		if plan := m.PlanOf(i); plan == nil || plan.ServersUsed > g[i] {
			t.Fatalf("tenant %d plan exceeds its grant %d: %+v", i, g[i], plan)
		}
	}
}

// The reactive step only re-solves when some tenant's demand moved past the
// threshold.
func TestJointReactiveThreshold(t *testing.T) {
	const pool = 20
	a := arbiterTenant(t, "a", pool, 0)
	b := arbiterTenant(t, "b", pool, 0)
	m, err := NewMultiController(pool, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	a.Meta.ObserveDemand(400)
	b.Meta.ObserveDemand(400)
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	base := m.Allocates()

	// Small wiggle: no new solve.
	a.Meta.ObserveDemand(410)
	if err := m.Step(false); err != nil {
		t.Fatal(err)
	}
	if m.Allocates() != base {
		t.Fatalf("reactive step re-solved on a %d→%d wiggle", 400, 410)
	}

	// Big move in one tenant: re-solve happens (cache may still absorb it,
	// so check the step actually ran by watching the published plan demand).
	for i := 0; i < 12; i++ {
		b.Meta.ObserveDemand(1200)
	}
	if err := m.Step(false); err != nil {
		t.Fatal(err)
	}
	if m.Allocates() == base {
		t.Fatalf("reactive step ignored a 3× demand move")
	}
}

// Constructor validation: bad shares, uncappable planners, impossible pools.
func TestMultiControllerValidation(t *testing.T) {
	const pool = 20
	if _, err := NewMultiController(0, []*Tenant{arbiterTenant(t, "a", pool, 0)}); err == nil {
		t.Fatal("zero pool accepted")
	}
	if _, err := NewMultiController(pool, nil); err == nil {
		t.Fatal("empty tenant set accepted")
	}
	if _, err := NewMultiController(pool, []*Tenant{
		arbiterTenant(t, "a", pool, 0.7), arbiterTenant(t, "b", pool, 0.7),
	}); err == nil {
		t.Fatal("oversubscribed MinShares accepted")
	}
	if _, err := NewMultiController(pool, []*Tenant{arbiterTenant(t, "a", pool, 1.5)}); err == nil {
		t.Fatal("MinShare > 1 accepted")
	}
	// Pool smaller than the joint keep-warm minimum (2 tasks per tenant).
	if _, err := NewMultiController(3, []*Tenant{
		arbiterTenant(t, "a", pool, 0), arbiterTenant(t, "b", pool, 0),
	}); err == nil {
		t.Fatal("pool below the joint keep-warm minimum accepted")
	}
	// Floors oversubscribe once keep-warm raises kick in: on a 10-server
	// pool, a 0.9 share (floor 9) plus an unreserved 2-task tenant (floor
	// raised to 2) needs 11 — splitPool would grant past the pool.
	if _, err := NewMultiController(10, []*Tenant{
		arbiterTenant(t, "a", pool, 0.9), arbiterTenant(t, "b", pool, 0),
	}); err == nil {
		t.Fatal("oversubscribed contention floors accepted")
	}
	// A bare Planner (no capped solve) is fine alone but not on a shared pool.
	bare := &Tenant{Name: "bare", Meta: arbiterTenant(t, "x", pool, 0).Meta, Alloc: plannerOnly{}}
	if _, err := NewMultiController(pool, []*Tenant{bare}); err != nil {
		t.Fatalf("single uncapped tenant rejected: %v", err)
	}
	if _, err := NewMultiController(pool, []*Tenant{bare, arbiterTenant(t, "b", pool, 0)}); err == nil {
		t.Fatal("uncapped planner accepted on a shared pool")
	}
}

type plannerOnly struct{}

func (plannerOnly) Allocate(float64) (*Plan, error) { return &Plan{}, nil }

// cappedStub is a planner that costs nothing and remembers how often it ran.
type cappedStub struct{ calls int }

func (p *cappedStub) Allocate(demand float64) (*Plan, error) {
	p.calls++
	return &Plan{Demand: demand}, nil
}

func (p *cappedStub) AllocateCapped(demand float64, caps []int) (*Plan, error) {
	p.calls++
	return &Plan{Demand: demand, ServersByClass: append([]int(nil), caps...)}, nil
}

// A tenant's plan cache is keyed by (demand bucket, grant vector), and on a
// contended multi-class pool grant vectors do not repeat: over a long
// drifting walk the cache must stay within its bound, and keep answering
// repeats from memory after it has been cleared.
func TestTenantCacheIsBounded(t *testing.T) {
	stub := &cappedStub{}
	tn := &Tenant{Name: "drift", Alloc: stub}
	rng := rand.New(rand.NewSource(23))
	demand := 400.0
	caps := []int{40, 80, 80}
	seen := map[tenantPlanKey]bool{}
	for round := 0; round < 6000; round++ {
		demand = math.Min(math.Max(demand*(0.97+0.06*rng.Float64()), 50), 5000)
		for cl := range caps {
			caps[cl] = max(1, caps[cl]+rng.Intn(5)-2)
		}
		if _, err := tn.solve(demand, caps, 1.2); err != nil {
			t.Fatal(err)
		}
		seen[planKey(demandBucket(demand, 1.2), caps)] = true
		if len(tn.cache) > maxCachedPlans {
			t.Fatalf("round %d: plan cache holds %d entries, bound %d", round, len(tn.cache), maxCachedPlans)
		}
	}
	if len(seen) < 4*maxCachedPlans {
		t.Fatalf("walk visited %d distinct keys; it must overflow the bound (%d) several times to test it", len(seen), maxCachedPlans)
	}
	calls := stub.calls
	if _, err := tn.solve(demand, caps, 1.2); err != nil {
		t.Fatal(err)
	}
	if stub.calls != calls {
		t.Fatal("repeating the last solve reached the planner: the cache stopped answering")
	}
}

// Tenants sharing one *pipeline.Graph and one set of profile tables, as on
// plan-fleet, build their routes concurrently on the publish fan-out. Over
// forced steps with the greedy-replace budget on, each followed by a
// Rebalance, a controller fanning out publishes the same plans and routes,
// in registration order, as one stepped at GOMAXPROCS 1, where every
// fan-out runs serially. Under -race this checks that the concurrent route
// builds share nothing mutable.
func TestSharedGraphRoundMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	const tenants, rounds = 4, 8
	g := profiles.TrafficChain()
	classes := []profiles.Class{
		{Name: "fast", Count: 8, Speed: 2.0},
		{Name: "mid", Count: 16, Speed: 1.0},
		{Name: "slow", Count: 16, Speed: 0.5},
	}
	prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
	type publication struct {
		tenant int
		plan   *Plan
		routes *Routes
	}
	build := func(log *[]publication) *MultiController {
		ts := make([]*Tenant, tenants)
		for i := range ts {
			meta := NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
			alloc, err := NewAllocator(meta, AllocatorOptions{
				NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
				SolveTimeLimit: 30 * time.Second, DisableStall: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts[i] = &Tenant{
				Name: fmt.Sprintf("t%d", i), Meta: meta, Alloc: alloc, RouteHeadroom: 0.30,
				Publish: func(plan *Plan, routes *Routes) {
					*log = append(*log, publication{i, plan, routes})
				},
			}
		}
		mc, err := NewMultiController(40, ts)
		if err != nil {
			t.Fatal(err)
		}
		mc.GreedyReplaceBudget = tenants
		return mc
	}
	var parLog, seqLog []publication
	par, seq := build(&parLog), build(&seqLog)

	rng := rand.New(rand.NewSource(3))
	levels := []float64{60, 90, 120, 150}
	for round := 0; round < rounds; round++ {
		for i := range levels {
			levels[i] *= 1 + 0.08*rng.Float64() - 0.04
		}
		for _, c := range []struct {
			mc    *MultiController
			procs int
		}{{par, 4}, {seq, 1}} {
			runtime.GOMAXPROCS(c.procs)
			for i, tn := range c.mc.tenants {
				for k := 0; k < 8; k++ {
					tn.Meta.ObserveDemand(levels[i])
				}
			}
			if err := c.mc.Step(true); err != nil {
				t.Fatal(err)
			}
			c.mc.Rebalance()
		}
	}
	if par.GreedyReplaced() == 0 {
		t.Fatal("no plan was replaced greedily; the budget is not exercised")
	}
	if len(parLog) != 2*rounds*tenants || len(seqLog) != len(parLog) {
		t.Fatalf("%d and %d publications, want %d each", len(parLog), len(seqLog), 2*rounds*tenants)
	}
	for k, p := range parLog {
		s := seqLog[k]
		if p.tenant != k%tenants || s.tenant != p.tenant {
			t.Fatalf("publication %d went to tenants %d and %d, want %d (registration order)", k, p.tenant, s.tenant, k%tenants)
		}
		comparePlans(t, fmt.Sprintf("publication %d", k), levels[p.tenant], p.plan, s.plan)
		if !reflect.DeepEqual(p.routes, s.routes) {
			t.Fatalf("publication %d (tenant %d): routes differ from the sequential controller's", k, p.tenant)
		}
	}
}

// randomRound draws a contention round the grant passes can meet: floors
// NewMultiController resolves and accepts (per-class shares raised to the
// task count, that fit every class), live counts at or below the class
// sizes, and wants no larger than the live counts that keep every task warm
// when the live pool can (an idle plan wants nothing).
func randomRound(rng *rand.Rand) *round {
	nc, n := 1+rng.Intn(3), 1+rng.Intn(8)
	for {
		counts := make([]int, nc)
		for c := range counts {
			counts[c] = 1 + rng.Intn(30)
		}
		weights := make([]float64, n)
		sum := 0.0
		for i := range weights {
			weights[i] = rng.Float64()
			sum += weights[i]
		}
		reserved := rng.Float64()
		warms := make([]int, n)
		floors := make([][]int, n)
		ok := true
		for i := range floors {
			warms[i] = 1 + rng.Intn(4)
			floors[i] = shareFloor(reserved*weights[i]/sum, counts, largestFirst(counts), warms[i])
			ok = ok && sumInts(floors[i]) >= warms[i]
		}
		for c, count := range counts {
			for _, f := range floors {
				count -= f[c]
			}
			ok = ok && count >= 0
		}
		if !ok || sumInts(warms) > sumInts(counts) {
			continue
		}
		live := slices.Clone(counts)
		if rng.Intn(2) == 0 {
			for c := range live {
				live[c] = rng.Intn(counts[c] + 1)
			}
		}
		tiers := make([]int, n)
		if rng.Intn(2) == 0 {
			for i := range tiers {
				tiers[i] = rng.Intn(3)
			}
		}
		wants := rows(n, nc)
		for i, w := range wants {
			if sumInts(live) < warms[i] {
				continue
			}
			for c := range w {
				w[c] = rng.Intn(live[c] + 1)
			}
			for c := 0; c < nc && sumInts(w) < warms[i]; c++ {
				w[c] += min(live[c]-w[c], warms[i]-sumInts(w))
			}
		}
		return &round{counts: live, floors: floors, warms: warms, tiers: tiers,
			wants: wants, constrained: make([]bool, n)}
	}
}

// The grant passes (split → lendSlack → ensureWarm) on random pools: no pass
// oversubscribes a class or grants a negative count, the split grants no
// tenant more than it wants, distinct tiers are served strictly in order,
// and when the live pool covers every floor the keep-warm repair pushes no
// donor below its floor or task count. A tenant the repair leaves below its
// task count must have had no donor: in every class where it is below its
// floor, the class is full and no other tenant holds servers above both its
// floor there and its own task count. (Such pools exist — the repair only
// claims classes where the tenant is below its floor — so this asserts the
// repair exhausted its donors rather than that it always succeeds.)
func TestArbiterGrantInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for k := 0; k < 50000; k++ {
		r := randomRound(rng)
		fail := func(pass, format string, args ...any) {
			t.Fatalf("pool %d after %s: %s\ncounts %v floors %v warms %v tiers %v\nwants %v grants %v",
				k, pass, fmt.Sprintf(format, args...), r.counts, r.floors, r.warms, r.tiers, r.wants, r.grants)
		}
		fits := func(pass string) {
			for c, n := range r.counts {
				used := 0
				for i, g := range r.grants {
					if g[c] < 0 {
						fail(pass, "tenant %d holds %d servers of class %d", i, g[c], c)
					}
					used += g[c]
				}
				if used > n {
					fail(pass, "class %d grants %d of %d live servers", c, used, n)
				}
			}
		}
		tierOrder := func(pass string) {
			for i, g := range r.grants {
				for j, w := range r.wants {
					if r.tiers[j] > r.tiers[i] && sumInts(g) > 0 && sumInts(r.grants[j]) < sumInts(w) {
						fail(pass, "tier %d tenant %d holds servers while tier %d tenant %d wants more", r.tiers[i], i, r.tiers[j], j)
					}
				}
			}
		}

		r.split()
		fits("split")
		for i, g := range r.grants {
			if r.packed {
				if sumInts(g) > sumInts(r.wants[i]) {
					fail("split", "tenant %d granted more than it wants", i)
				}
				continue
			}
			for c := range g {
				if g[c] > r.wants[i][c] {
					fail("split", "tenant %d granted more than it wants of class %d", i, c)
				}
			}
		}
		if r.packed {
			tierOrder("split")
		}
		r.lendSlack()
		fits("lendSlack")
		if r.packed {
			tierOrder("lendSlack")
		}
		before := make([][]int, len(r.grants))
		for i, g := range r.grants {
			before[i] = slices.Clone(g)
		}
		r.ensureWarm()
		fits("ensureWarm")
		covered := true
		for c, n := range r.counts {
			floors := 0
			for _, f := range r.floors {
				floors += f[c]
			}
			covered = covered && floors <= n
		}
		if !covered {
			continue
		}
		for i, g := range r.grants {
			for c := range g {
				if g[c] < before[i][c] && (g[c] < r.floors[i][c] || sumInts(g) < r.warms[i]) {
					fail("ensureWarm", "donor %d pushed below its floor or task count in class %d", i, c)
				}
			}
			if sumInts(g) >= r.warms[i] {
				continue
			}
			for c := range g {
				if g[c] >= r.floors[i][c] {
					continue
				}
				used := 0
				for j, d := range r.grants {
					used += d[c]
					if j != i && d[c] > r.floors[j][c] && sumInts(d) > r.warms[j] {
						fail("ensureWarm", "tenant %d left below its task count while tenant %d could give class %d", i, j, c)
					}
				}
				if used < r.counts[c] {
					fail("ensureWarm", "tenant %d left below its task count beside free class %d servers", i, c)
				}
			}
		}
	}
}
