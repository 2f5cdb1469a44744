package core

import (
	"fmt"
	"math"
	"testing"

	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// lbGraph is a 2-task chain with two variants at each task.
func lbGraph() *pipeline.Graph {
	return &pipeline.Graph{
		Name: "lb",
		Tasks: []pipeline.Task{
			{ID: 0, Name: "det", Variants: []pipeline.Variant{
				{Name: "fast", Accuracy: 0.8, Alpha: 0.002, Beta: 0.004, MultFactor: 1.5},
				{Name: "best", Accuracy: 1.0, Alpha: 0.004, Beta: 0.008, MultFactor: 2.0},
			}, Children: []pipeline.Child{{Task: 1, BranchRatio: 0.5}}},
			{ID: 1, Name: "cls", Variants: []pipeline.Variant{
				{Name: "fast", Accuracy: 0.9, Alpha: 0.001, Beta: 0.002, MultFactor: 1},
				{Name: "best", Accuracy: 1.0, Alpha: 0.002, Beta: 0.004, MultFactor: 1},
			}},
		},
	}
}

func lbSpecs() []WorkerSpec {
	return []WorkerSpec{
		{ID: 0, Task: 0, Variant: 1, MaxBatch: 4, QPS: 100, LatencySec: 0.04, Accuracy: 1.0, BudgetSec: 0.08},
		{ID: 1, Task: 0, Variant: 0, MaxBatch: 4, QPS: 200, LatencySec: 0.02, Accuracy: 0.8, BudgetSec: 0.04},
		{ID: 2, Task: 1, Variant: 1, MaxBatch: 4, QPS: 150, LatencySec: 0.03, Accuracy: 1.0, BudgetSec: 0.06},
		{ID: 3, Task: 1, Variant: 0, MaxBatch: 4, QPS: 400, LatencySec: 0.01, Accuracy: 0.9, BudgetSec: 0.02},
	}
}

func staticMult(g *pipeline.Graph) func(pipeline.TaskID, int) float64 {
	return func(t pipeline.TaskID, v int) float64 {
		return g.Tasks[t].Variants[v].MultFactor
	}
}

func TestMostAccurateFirstSaturatesBestWorkers(t *testing.T) {
	g := lbGraph()
	routes := MostAccurateFirst(g, lbSpecs(), 150, staticMult(g))
	// Frontend: 100 QPS to the accurate worker 0 (prob 100/150), rest to 1.
	if len(routes.Frontend) != 2 {
		t.Fatalf("frontend entries = %v", routes.Frontend)
	}
	if routes.Frontend[0].Worker != 0 || math.Abs(routes.Frontend[0].Prob-100.0/150) > 1e-9 {
		t.Fatalf("first entry = %+v, want worker 0 with prob 2/3", routes.Frontend[0])
	}
	if routes.Frontend[1].Worker != 1 || math.Abs(routes.Frontend[1].Prob-50.0/150) > 1e-9 {
		t.Fatalf("second entry = %+v", routes.Frontend[1])
	}
}

func TestRoutingProbabilitiesSumToOneUnderCapacity(t *testing.T) {
	g := lbGraph()
	routes := MostAccurateFirst(g, lbSpecs(), 100, staticMult(g))
	sum := 0.0
	for _, e := range routes.Frontend {
		sum += e.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("frontend probs sum to %g", sum)
	}
	for _, spec := range lbSpecs() {
		if spec.Task != 0 {
			continue
		}
		table := routes.Tables[spec.ID]
		entries := table.PerChild[1]
		if len(entries) == 0 {
			continue
		}
		s := 0.0
		for _, e := range entries {
			s += e.Prob
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("worker %d child probs sum to %g", spec.ID, s)
		}
	}
}

func TestOverloadShedsInsteadOfOverflowing(t *testing.T) {
	g := lbGraph()
	// Total task-0 capacity is 300; demand 600 → exactly half routed.
	routes := MostAccurateFirst(g, lbSpecs(), 600, staticMult(g))
	sum := 0.0
	for _, e := range routes.Frontend {
		sum += e.Prob
	}
	if math.Abs(sum-0.5) > 1e-9 {
		t.Fatalf("frontend probs sum to %g, want 0.5 (capacity/demand)", sum)
	}
}

func TestBackupTableListsLeftoverCapacity(t *testing.T) {
	g := lbGraph()
	routes := MostAccurateFirst(g, lbSpecs(), 100, staticMult(g))
	// Task 0: worker 0 absorbs all 100 → leftover on worker 1 (200).
	b := routes.Backup[0]
	if len(b) != 1 || b[0].Worker != 1 || math.Abs(b[0].Leftover-200) > 1e-9 {
		t.Fatalf("task-0 backup = %+v", b)
	}
	// Task 1 receives 100×2.0×0.5 = 100 ≤ worker 2's 150.
	found := false
	for _, e := range routes.Backup[1] {
		if e.Worker == 3 && math.Abs(e.Leftover-400) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("task-1 backup missing idle worker 3: %+v", routes.Backup[1])
	}
}

func TestZeroDemandStillRoutes(t *testing.T) {
	g := lbGraph()
	routes := MostAccurateFirst(g, lbSpecs(), 0, staticMult(g))
	if len(routes.Frontend) != 1 || routes.Frontend[0].Prob != 1 {
		t.Fatalf("frontend = %+v, want single certain route", routes.Frontend)
	}
	if routes.Frontend[0].Worker != 0 {
		t.Fatalf("zero-demand route goes to worker %d, want the most accurate (0)", routes.Frontend[0].Worker)
	}
}

func TestMultFactorDrivesChildDemand(t *testing.T) {
	g := lbGraph()
	// Demand 100 through the accurate detector (mult 2.0, ratio 0.5) →
	// 100 child queries: worker 2 (acc 1.0, cap 150) takes all of them.
	routes := MostAccurateFirst(g, lbSpecs(), 100, staticMult(g))
	entries := routes.Tables[0].PerChild[1]
	if len(entries) != 1 || entries[0].Worker != 2 {
		t.Fatalf("child routing = %+v, want all to worker 2", entries)
	}
}

func TestExpandPlanAssignsDenseIDs(t *testing.T) {
	plan := &Plan{Assignments: []Assignment{
		{Task: 0, Variant: 1, MaxBatch: 4, Replicas: 3, QPS: 10},
		{Task: 1, Variant: 0, MaxBatch: 2, Replicas: 2, QPS: 20},
	}}
	specs := ExpandPlan(plan)
	if len(specs) != 5 {
		t.Fatalf("got %d specs, want 5", len(specs))
	}
	for i, s := range specs {
		if int(s.ID) != i {
			t.Fatalf("spec %d has ID %d", i, s.ID)
		}
	}
	if specs[3].Task != 1 {
		t.Fatalf("spec 3 task = %d, want 1", specs[3].Task)
	}
}

// oneTenant wires a planner into a one-tenant MultiController over a
// 20-server pool, the control path every single-pipeline run takes.
func oneTenant(t *testing.T, meta *MetadataStore, alloc Planner, publish func(*Plan, *Routes)) *MultiController {
	t.Helper()
	m, err := NewMultiController(20, []*Tenant{{Name: "pipeline", Meta: meta, Alloc: alloc, Publish: publish}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestControllerCachesPlansByDemandBucket(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := NewAllocator(meta, AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	ctrl := oneTenant(t, meta, alloc, func(*Plan, *Routes) { published++ })
	meta.ObserveDemand(400)
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	if ctrl.Allocates() != 1 || published != 1 {
		t.Fatalf("allocates=%d published=%d", ctrl.Allocates(), published)
	}
	// Same bucket: no new MILP solve, but routing is refreshed.
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	if ctrl.Allocates() != 1 {
		t.Fatalf("cache miss on identical demand: %d allocates", ctrl.Allocates())
	}
	// Different demand: new solve.
	meta.ObserveDemand(2000)
	meta.ObserveDemand(2000)
	meta.ObserveDemand(2000)
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	if ctrl.Allocates() != 2 {
		t.Fatalf("expected a second allocation, got %d", ctrl.Allocates())
	}
}

func TestControllerReactiveThreshold(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := NewAllocator(meta, AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := oneTenant(t, meta, alloc, nil)
	meta.ObserveDemand(400)
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	base := ctrl.Allocates()
	// A small drift must not trigger a reactive solve.
	meta.ObserveDemand(420)
	if err := ctrl.Step(false); err != nil {
		t.Fatal(err)
	}
	if ctrl.Allocates() != base {
		t.Fatal("reactive step reallocated on a small drift")
	}
	if ctrl.PlanOf(0) == nil || ctrl.RoutesOf(0) == nil {
		t.Fatal("controller lost its standing plan")
	}
}

// fleetChainPlan is an allocator plan on the plan-fleet cell's 3-class
// traffic chain at the given demand.
func fleetChainPlan(t *testing.T, demand float64) (*Allocator, *Plan) {
	t.Helper()
	a := pinAllocator(t, "fleet-chain")
	plan, err := a.Allocate(demand)
	if err != nil {
		t.Fatal(err)
	}
	return a, plan
}

// Every table MostAccurateFirst builds on a fleet plan is a sub-distribution
// over distinct workers of the task it routes to: no worker twice,
// probabilities in (0, 1] summing to at most one. At normal, overload and
// zero demand.
func TestMostAccurateFirstTablesAreSubDistributions(t *testing.T) {
	for _, demand := range []float64{400, 2500} {
		a, plan := fleetChainPlan(t, demand)
		g := a.meta.Graph()
		specs := ExpandPlan(plan)
		for _, routed := range []float64{demand * 1.3, demand * 4, 0} {
			routes := MostAccurateFirst(g, specs, routed, a.meta.MultFactor)
			check := func(what string, task pipeline.TaskID, entries []RouteEntry) {
				t.Helper()
				seen := map[WorkerID]bool{}
				sum := 0.0
				for _, e := range entries {
					if seen[e.Worker] {
						t.Fatalf("demand %v routed at %v: %s names worker %d twice: %v", demand, routed, what, e.Worker, entries)
					}
					seen[e.Worker] = true
					if specs[e.Worker].Task != task {
						t.Fatalf("demand %v routed at %v: %s routes task %d to worker %d of task %d", demand, routed, what, task, e.Worker, specs[e.Worker].Task)
					}
					if e.Prob <= 0 || e.Prob > 1 {
						t.Fatalf("demand %v routed at %v: %s entry %+v outside (0, 1]", demand, routed, what, e)
					}
					sum += e.Prob
				}
				if sum > 1+1e-9 {
					t.Fatalf("demand %v routed at %v: %s probabilities sum to %v", demand, routed, what, sum)
				}
			}
			check("frontend", 0, routes.Frontend)
			for id, table := range routes.Tables {
				for child, entries := range table.PerChild {
					check(fmt.Sprintf("worker %d's table for task %d", id, child), child, entries)
				}
			}
		}
	}
}

// Allocation pins on an 8-worker fleet plan: the route build allocates a
// fixed set of slabs and maps (59 objects when every worker state, table and
// merged fill had its own), and a greedy-served call its search scratch and
// the plan (26 when each call costed and sorted every candidate path).
func TestFleetRoundAllocs(t *testing.T) {
	a, plan := fleetChainPlan(t, 400)
	g := a.meta.Graph()
	specs := ExpandPlan(plan)
	if len(specs) != 8 {
		t.Fatalf("fixture plan has %d workers, want 8", len(specs))
	}
	if _, ok := a.GreedyAllocate(400, nil); !ok {
		t.Fatal("greedy pass found no plan on the fleet cell")
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"MostAccurateFirst", 22, func() { MostAccurateFirst(g, specs, 400*1.3, a.meta.MultFactor) }},
		{"GreedyAllocate", 17, func() { a.GreedyAllocate(400, nil) }},
	} {
		if got := testing.AllocsPerRun(50, c.fn); got > c.ceiling {
			t.Errorf("%s: %.0f allocations per call, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
