package cluster

import (
	"testing"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
)

// heteroRig builds a two-class cluster (2 fast@2.0 + 4 slow@1.0) over the
// deterministic test graph.
func heteroRig(t *testing.T) *rig {
	t.Helper()
	g := testGraph()
	classes := []profiles.Class{
		{Name: "fast", Count: 2, Speed: 2.0, CostPerHour: 2.0},
		{Name: "slow", Count: 4, Speed: 1.0, CostPerHour: 0.5},
	}
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := core.NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
	eng := &sim.Engine{}
	col := metrics.NewCollector(10, 6)
	col.SetClasses([]string{"fast", "slow"}, []float64{2.0, 0.5})
	cl, err := New(eng, meta, policy.Opportunistic{}, col, Options{
		Classes: classes, SLOSec: 0.250, NetLatencySec: 0.001, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, meta: meta, cl: cl, col: col}
}

// heteroPlan deploys nFast replicas of task 0 on the fast class and nSlow of
// task 1 on the slow class, at batch 4.
func heteroPlan(nFast, nSlow int) *core.Plan {
	g := testGraph()
	mk := func(task pipeline.TaskID, class int, name string, speed float64, n int) core.Assignment {
		v := g.Tasks[task].Variants[0]
		lat := v.Latency(4) / speed
		return core.Assignment{
			Task: task, Variant: 0, MaxBatch: 4, Replicas: n,
			Class: class, ClassName: name,
			QPS: 4 / lat, LatencySec: lat, Accuracy: v.Accuracy, BudgetSec: 2 * lat,
		}
	}
	p := &core.Plan{Mode: core.HardwareScaling, ServedFraction: 1}
	p.Assignments = []core.Assignment{
		mk(0, 0, "fast", 2.0, nFast),
		mk(1, 1, "slow", 1.0, nSlow),
	}
	p.ServersUsed = nFast + nSlow
	p.ServersByClass = []int{nFast, nSlow}
	return p
}

// Specs land only on workers of their own class, and per-class occupancy
// reports them.
func TestHeteroPlacementRespectsClasses(t *testing.T) {
	r := heteroRig(t)
	r.apply(heteroPlan(2, 3), 100)
	by := r.cl.ActiveByClass()
	if by[0] != 2 || by[1] != 3 {
		t.Fatalf("ActiveByClass = %v, want [2 3]", by)
	}
	if got := r.cl.ActiveServers(); got != 5 {
		t.Fatalf("ActiveServers = %d, want 5", got)
	}
}

// A class-full plan never spills onto the other class: asking for more fast
// replicas than the fast class holds leaves the overflow unhosted rather
// than placing it on slow hardware it was not profiled for.
func TestHeteroNoCrossClassSpill(t *testing.T) {
	r := heteroRig(t)
	r.apply(heteroPlan(3, 2), 100) // fast class holds only 2
	by := r.cl.ActiveByClass()
	if by[0] != 2 {
		t.Fatalf("fast class hosts %d workers, capacity 2", by[0])
	}
	if by[1] != 2 {
		t.Fatalf("slow-class overflow: ActiveByClass = %v", by)
	}
}

// Reconfigurations swap models within a class: re-applying an identical
// hetero plan keeps every worker, and moving a task between classes reloads
// models instead of silently relabeling foreign workers.
func TestHeteroSwapStaysWithinClass(t *testing.T) {
	r := heteroRig(t)
	r.cl.opts.SwapLatencySec = 1.0
	r.apply(heteroPlan(2, 3), 100)
	swaps := r.cl.totalSwaps
	r.apply(heteroPlan(2, 3), 100)
	if r.cl.totalSwaps != swaps {
		t.Fatalf("identical hetero plan triggered %d swaps", r.cl.totalSwaps-swaps)
	}

	// Move task 0 from the fast class to the slow class (and task 1 onto
	// fast): every replica changes class, so every replica must reload.
	g := testGraph()
	flip := &core.Plan{Mode: core.HardwareScaling, ServedFraction: 1, ServersByClass: []int{2, 2}}
	v0, v1 := g.Tasks[0].Variants[0], g.Tasks[1].Variants[0]
	flip.Assignments = []core.Assignment{
		{Task: 0, Variant: 0, MaxBatch: 4, Replicas: 2, Class: 1, ClassName: "slow",
			QPS: 4 / v0.Latency(4), LatencySec: v0.Latency(4), Accuracy: v0.Accuracy, BudgetSec: 2 * v0.Latency(4)},
		{Task: 1, Variant: 0, MaxBatch: 4, Replicas: 2, Class: 0, ClassName: "fast",
			QPS: 4 / (v1.Latency(4) / 2), LatencySec: v1.Latency(4) / 2, Accuracy: v1.Accuracy, BudgetSec: v1.Latency(4)},
	}
	flip.ServersUsed = 4
	r.apply(flip, 100)
	if got := r.cl.totalSwaps - swaps; got != 4 {
		t.Fatalf("cross-class move swapped %d workers, want 4", got)
	}
	by := r.cl.ActiveByClass()
	if by[0] != 2 || by[1] != 2 {
		t.Fatalf("ActiveByClass after flip = %v, want [2 2]", by)
	}
}

// Fast-class workers execute batches at their class speed: with both classes
// hosting the same variant, a run on the fast class completes roughly twice
// the work per unit time.
func TestHeteroExecutionSpeedScalesPerClass(t *testing.T) {
	g := testGraph()
	onClass := func(class int, name string, speed float64) int64 {
		classes := []profiles.Class{
			{Name: "fast", Count: 2, Speed: 2.0},
			{Name: "slow", Count: 2, Speed: 1.0},
		}
		prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
		meta := core.NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
		eng := &sim.Engine{}
		cl, err := New(eng, meta, policy.NoDrop{}, nil, Options{
			Classes: classes, SLOSec: 0.250, NetLatencySec: 0.0001, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		v0 := g.Tasks[0].Variants[0]
		lat := v0.Latency(4) / speed
		plan := &core.Plan{Mode: core.HardwareScaling, ServedFraction: 1, ServersUsed: 2}
		plan.Assignments = []core.Assignment{
			{Task: 0, Variant: 0, MaxBatch: 4, Replicas: 1, Class: class, ClassName: name,
				QPS: 4 / lat, LatencySec: lat, Accuracy: 1, BudgetSec: 2 * lat},
			{Task: 1, Variant: 0, MaxBatch: 4, Replicas: 1, Class: class, ClassName: name,
				QPS: 4 / lat, LatencySec: lat, Accuracy: 0.9, BudgetSec: 2 * lat},
		}
		specs := core.ExpandPlan(plan)
		routes := core.MostAccurateFirst(g, specs, 1e9, meta.MultFactor)
		cl.ApplyPlan(plan, routes)
		// Saturate: inject far more than capacity, run 10 simulated seconds.
		for i := 0; i < 4000; i++ {
			at := float64(i) * 0.0025
			cl.eng.At(at, cl.InjectRequest)
		}
		eng.Run(10)
		return cl.totalCompleted
	}
	slow := onClass(1, "slow", 1.0)
	fast := onClass(0, "fast", 2.0)
	if fast < slow*3/2 {
		t.Fatalf("fast class completed %d vs slow %d; expected ≈2× speedup", fast, slow)
	}
}

// The load balancer weights routes by class-specific service rate: with one
// fast and one slow replica of the same variant, the fast worker receives
// the larger routing share.
func TestHeteroRoutingWeightsByClassRate(t *testing.T) {
	g := testGraph()
	v0 := g.Tasks[0].Variants[0]
	fastLat, slowLat := v0.Latency(4)/2, v0.Latency(4)
	specs := []core.WorkerSpec{
		{ID: 0, Task: 0, Variant: 0, MaxBatch: 4, Class: 0, ClassName: "fast",
			QPS: 4 / fastLat, LatencySec: fastLat, Accuracy: 1, BudgetSec: 2 * fastLat},
		{ID: 1, Task: 0, Variant: 0, MaxBatch: 4, Class: 1, ClassName: "slow",
			QPS: 4 / slowLat, LatencySec: slowLat, Accuracy: 1, BudgetSec: 2 * slowLat},
		{ID: 2, Task: 1, Variant: 0, MaxBatch: 4, Class: 1, ClassName: "slow",
			QPS: 4 / slowLat, LatencySec: slowLat, Accuracy: 0.9, BudgetSec: 2 * slowLat},
	}
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	demand := 4/fastLat + 4/slowLat // saturate both task-0 workers
	routes := core.MostAccurateFirst(g, specs, demand, meta.MultFactor)
	var probFast, probSlow float64
	for _, e := range routes.Frontend {
		switch e.Worker {
		case 0:
			probFast = e.Prob
		case 1:
			probSlow = e.Prob
		}
	}
	if probFast <= probSlow {
		t.Fatalf("fast worker got %.3f of the demand vs slow %.3f; want rate-weighted routing", probFast, probSlow)
	}
	if probFast < 0.6 || probFast > 0.7 {
		t.Fatalf("fast share %.3f, want ≈2/3 (its share of the aggregate service rate)", probFast)
	}
}
