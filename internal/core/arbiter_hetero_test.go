package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"loki/internal/profiles"
)

func heteroClasses() []profiles.Class {
	return []profiles.Class{
		{Name: "fast", Count: 4, Speed: 2.0, CostPerHour: 3.0},
		{Name: "slow", Count: 12, Speed: 1.0, CostPerHour: 1.0},
	}
}

func heteroTenant(t *testing.T, name string, minShare float64) *Tenant {
	t.Helper()
	g := profiles.TrafficChain()
	classes := heteroClasses()
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
	alloc, err := NewAllocator(meta, AllocatorOptions{
		NetLatencySec:  0.002,
		KeepWarm:       true,
		Headroom:       0.30,
		SolveTimeLimit: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Tenant{Name: name, Meta: meta, Alloc: alloc, MinShare: minShare, RouteHeadroom: 0.30}
}

// Per-class floors resolve from the shares, the keep-warm raise keeps every
// tenant runnable, and grant vectors are reported per class.
func TestHeteroFloorsAndClassGrants(t *testing.T) {
	a := heteroTenant(t, "a", 0.5)
	b := heteroTenant(t, "b", 0.5)
	m, err := NewMultiController(16, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*Tenant{a, b} {
		if len(tn.floorByClass) != 2 {
			t.Fatalf("tenant %s floorByClass = %v, want per-class vector", tn.Name, tn.floorByClass)
		}
		if tn.floorByClass[0] != 2 || tn.floorByClass[1] != 6 {
			t.Fatalf("tenant %s floors = %v, want [2 6] (half of each class)", tn.Name, tn.floorByClass)
		}
	}
	a.Meta.ObserveDemand(100)
	b.Meta.ObserveDemand(100)
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	cg := m.ClassGrants()
	if len(cg) != 2 || len(cg[0]) != 2 {
		t.Fatalf("ClassGrants = %v, want 2 tenants × 2 classes", cg)
	}
	for c := 0; c < 2; c++ {
		if cg[0][c]+cg[1][c] > m.counts[c] {
			t.Fatalf("class %d oversubscribed: grants %v, count %d", c, cg, m.counts[c])
		}
	}
	total := m.Grants()
	if total[0] != sumInts(cg[0]) || total[1] != sumInts(cg[1]) {
		t.Fatalf("Grants %v disagree with ClassGrants %v", total, cg)
	}
}

// Under joint contention every class's grants stay within its count, capped
// re-solves stay inside their vectors, and both tenants keep at least their
// per-class floors of what they wanted.
func TestHeteroContentionSplitsVectors(t *testing.T) {
	a := heteroTenant(t, "a", 0.5)
	b := heteroTenant(t, "b", 0.5)
	m, err := NewMultiController(16, []*Tenant{a, b})
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
	cg := m.ClassGrants()
	for c := 0; c < 2; c++ {
		if cg[0][c]+cg[1][c] > m.counts[c] {
			t.Fatalf("class %d oversubscribed under contention: %v (counts %v)", c, cg, m.counts)
		}
	}
	for i := 0; i < 2; i++ {
		plan := m.PlanOf(i)
		if plan == nil {
			t.Fatalf("tenant %d has no plan", i)
		}
		for c, used := range plan.ServersByClass {
			if used > cg[i][c] {
				t.Fatalf("tenant %d uses %d servers of class %d beyond its grant %v", i, used, c, cg[i])
			}
		}
	}
}

// One tenant hungry while the other idles: the hungry tenant's grant vector
// grows into the idle tenant's unused servers of every class, and shrinks
// back when the spike subsides.
func TestHeteroIdleClassCapacityIsLent(t *testing.T) {
	a := heteroTenant(t, "a", 0.5)
	b := heteroTenant(t, "b", 0.5)
	m, err := NewMultiController(16, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		a.Meta.ObserveDemand(2500)
		b.Meta.ObserveDemand(40)
	}
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	grants := m.Grants()
	if grants[0] <= 8 {
		t.Fatalf("hungry tenant stuck at its floor: grants %v (class grants %v)", grants, m.ClassGrants())
	}
	for c, cg := 0, m.ClassGrants(); c < 2; c++ {
		if cg[0][c]+cg[1][c] > m.counts[c] {
			t.Fatalf("class %d oversubscribed: %v", c, cg)
		}
	}
}

// The parallel per-tenant solve fan-out produces the same class grants as
// the sequential path the arbiter takes at GOMAXPROCS 1 — the hetero
// analogue of the planner parity contract — and is race-clean when run under
// -race.
func TestHeteroParallelMatchesSequential(t *testing.T) {
	run := func(procs int) [][]int {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		a := heteroTenant(t, "a", 0.4)
		b := heteroTenant(t, "b", 0.4)
		m, err := NewMultiController(16, []*Tenant{a, b})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			a.Meta.ObserveDemand(1800)
			b.Meta.ObserveDemand(900)
		}
		if err := m.Step(true); err != nil {
			t.Fatal(err)
		}
		return m.ClassGrants()
	}
	par := run(max(runtime.GOMAXPROCS(0), 2))
	seq := run(1)
	for i := range par {
		for c := range par[i] {
			if par[i][c] != seq[i][c] {
				t.Fatalf("parallel class grants %v diverge from sequential %v", par, seq)
			}
		}
	}
}

// A tenant whose want concentrates on a scarce contended class must still
// receive a grant vector that can keep its tasks warm: the repair claims the
// tenant's unused floor slice of the other classes back from neighbours (and
// the reclaimed-from neighbour re-solves inside its reduced vector) instead
// of failing the whole allocation round. Regression test for the per-class
// split dropping a grant total below the keep-warm minimum.
func TestHeteroKeepWarmSurvivesClassContention(t *testing.T) {
	mk := func(name string) *Tenant {
		g := profiles.TrafficChain() // 2 tasks → warm = 2
		classes := []profiles.Class{
			{Name: "fast", Count: 2, Speed: 2.0},
			{Name: "slow", Count: 20, Speed: 1.0},
		}
		prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
		meta := NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
		alloc, err := NewAllocator(meta, AllocatorOptions{
			NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
			SolveTimeLimit: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &Tenant{Name: name, Meta: meta, Alloc: alloc, RouteHeadroom: 0.30}
	}
	x, y, z := mk("x"), mk("y"), mk("z")
	m, err := NewMultiController(22, []*Tenant{x, y, z})
	if err != nil {
		t.Fatal(err)
	}
	// All three tenants hungry: the 2-server fast class is contended, and z
	// wants enough to fill the slow class too.
	for i := 0; i < 12; i++ {
		x.Meta.ObserveDemand(400)
		y.Meta.ObserveDemand(400)
		z.Meta.ObserveDemand(3000)
	}
	if err := m.Step(true); err != nil {
		t.Fatalf("joint step failed under class contention: %v", err)
	}
	cg := m.ClassGrants()
	for i, g := range cg {
		if sumInts(g) < 2 {
			t.Fatalf("tenant %d grant %v below its keep-warm minimum (grants %v)", i, g, cg)
		}
	}
	for c := 0; c < 2; c++ {
		total := 0
		for i := range cg {
			total += cg[i][c]
		}
		if total > m.counts[c] {
			t.Fatalf("class %d oversubscribed after keep-warm repair: %v", c, cg)
		}
	}
}

// Small-share tenants' keep-warm floors land on the roomy class, not the
// scarce fast one: four 1%-share tenants on a fast:4/slow:28 fleet have a
// feasible floor assignment and must construct. Regression test for the
// floor raise piling every tenant onto class 0.
func TestHeteroKeepWarmFloorsAvoidScarceClass(t *testing.T) {
	mk := func(name string) *Tenant {
		g := profiles.TrafficTree() // 3 tasks
		classes := []profiles.Class{
			{Name: "fast", Count: 4, Speed: 2.0},
			{Name: "slow", Count: 28, Speed: 1.0},
		}
		prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
		meta := NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
		alloc, err := NewAllocator(meta, AllocatorOptions{
			NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
			SolveTimeLimit: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &Tenant{Name: name, Meta: meta, Alloc: alloc, MinShare: 0.01, RouteHeadroom: 0.30}
	}
	tenants := []*Tenant{mk("a"), mk("b"), mk("c"), mk("d")}
	m, err := NewMultiController(32, tenants)
	if err != nil {
		t.Fatalf("feasible floor assignment rejected: %v", err)
	}
	for _, tn := range tenants {
		if tn.floorByClass[0] > 1 {
			t.Fatalf("tenant %s keep-warm floors piled onto the scarce class: %v", tn.Name, tn.floorByClass)
		}
		if sumInts(tn.floorByClass) < 3 {
			t.Fatalf("tenant %s floors %v below keep-warm", tn.Name, tn.floorByClass)
		}
	}
	_ = m
}

// When even the saturation search finds no point inside a grant, the
// allocator serves the idle plan. A grant of slow servers only, on a class a
// hundred times slower than the profile, holds no configuration path that
// fits the SLO: Loki's capped solve and the InferLine baseline's
// hardware-only path must both come back idle rather than with replicas
// whose batches outlast the budget, or with more servers than the grant.
func TestSaturationMissServesIdlePlan(t *testing.T) {
	g := profiles.TrafficTree()
	classes := []profiles.Class{
		{Name: "fast", Count: 4, Speed: 1.0},
		{Name: "slow", Count: 20, Speed: 0.01},
	}
	const slo = 0.250
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := NewMetadataStoreHetero(g, classes, prof, slo, profiles.Batches)
	a, err := NewAllocator(meta, AllocatorOptions{
		NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
		SolveTimeLimit: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{0, 20}
	capped, err := a.AllocateCapped(300, caps)
	if err != nil {
		t.Fatal(err)
	}
	hwOnly, err := a.Capped(caps).AllocateHardwareOnly(300)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *Plan
	}{{"AllocateCapped", capped}, {"AllocateHardwareOnly", hwOnly}} {
		name, plan := tc.name, tc.plan
		for _, as := range plan.Assignments {
			if as.LatencySec > slo/2 {
				t.Errorf("%s: task %d variant %d on %s takes %.3f s a batch, over SLO/2", name, as.Task, as.Variant, as.ClassName, as.LatencySec)
			}
		}
		for c, n := range plan.ServersByClass {
			if n > caps[c] {
				t.Errorf("%s: %d servers on class %q, over its cap of %d", name, n, classes[c].Name, caps[c])
			}
		}
		if plan.Mode != Saturated || len(plan.Assignments) != 0 || plan.ServersUsed != 0 || plan.ServedFraction != 0 {
			t.Errorf("%s: want the idle plan (saturated, no assignments, served fraction 0), got %v", name, plan)
		}
	}
}

// Concurrent observers against a stepping hetero controller: the per-class
// arbiter path must be race-clean (meaningful under -race, where CI and the
// local suite run it).
func TestHeteroArbiterConcurrentAccess(t *testing.T) {
	a := heteroTenant(t, "a", 0)
	b := heteroTenant(t, "b", 0)
	m, err := NewMultiController(16, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	a.Meta.ObserveDemand(500)
	b.Meta.ObserveDemand(700)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				a.Meta.ObserveDemand(float64(300 + 200*i + 50*j))
				if err := m.Step(j%2 == 0); err != nil {
					t.Error(err)
					return
				}
				_ = m.Grants()
				_ = m.ClassGrants()
				_ = m.PlanOf(i % 2)
			}
		}(i)
	}
	wg.Wait()
	for c, cg := 0, m.ClassGrants(); c < 2; c++ {
		if cg[0][c]+cg[1][c] > m.counts[c] {
			t.Fatalf("class %d oversubscribed after concurrent stepping: %v", c, cg)
		}
	}
}

// TestHeteroArbiterReplansOnCapacityChange drives the arbiter's fault path:
// when Capacity reports part of a class down, the next unforced Step
// re-plans with every class's grants within the live counts, an unchanged
// reading does not re-plan again, and after recovery the next Step plans
// against the static counts once more.
func TestHeteroArbiterReplansOnCapacityChange(t *testing.T) {
	a := heteroTenant(t, "a", 0)
	b := heteroTenant(t, "b", 0)
	m, err := NewMultiController(16, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	live := []int{4, 12}
	m.Capacity = func() []int { return live }
	rounds := 0
	m.OnGrants = func(int, []int) { rounds++ }
	// Demand past what the pool serves, so the tenants claim every class.
	a.Meta.ObserveDemand(2000)
	b.Meta.ObserveDemand(2000)
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	slowGranted := func() int {
		cg := m.ClassGrants()
		return cg[0][1] + cg[1][1]
	}
	if got := slowGranted(); got <= 6 {
		t.Fatalf("healthy pool: slow class grants sum to %d, want more than 6 for the outage to bind", got)
	}

	live = []int{4, 6}
	for step, wantRounds := range []int{1, 0} {
		before := rounds
		if err := m.Step(false); err != nil {
			t.Fatal(err)
		}
		if rounds-before != wantRounds {
			t.Fatalf("step %d after the crash ran %d rounds, want %d", step, rounds-before, wantRounds)
		}
		cg := m.ClassGrants()
		for c, n := range live {
			if cg[0][c]+cg[1][c] > n {
				t.Fatalf("class %d granted %v with %d servers up", c, cg, n)
			}
		}
	}

	live = []int{4, 12}
	before := rounds
	if err := m.Step(false); err != nil {
		t.Fatal(err)
	}
	if rounds != before+1 {
		t.Fatalf("recovery ran %d rounds on the next Step, want 1", rounds-before)
	}
	if got := slowGranted(); got <= 6 {
		t.Fatalf("after recovery the slow class grants sum to %d, want the static 12 servers back in use", got)
	}
}
