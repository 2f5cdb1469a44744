package cluster

import (
	"math"
	"math/rand"
	"testing"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
	"loki/internal/trace"
)

// testGraph is a 2-task chain with deterministic profiles.
func testGraph() *pipeline.Graph {
	return &pipeline.Graph{
		Name: "t",
		Tasks: []pipeline.Task{
			{ID: 0, Name: "a", Variants: []pipeline.Variant{
				{Name: "a0", Accuracy: 1.0, Alpha: 0.005, Beta: 0.005, MultFactor: 1.0},
			}, Children: []pipeline.Child{{Task: 1, BranchRatio: 1.0}}},
			{ID: 1, Name: "b", Variants: []pipeline.Variant{
				{Name: "b0", Accuracy: 0.9, Alpha: 0.005, Beta: 0.005, MultFactor: 1.0},
			}},
		},
	}
}

type rig struct {
	eng  *sim.Engine
	meta *core.MetadataStore
	cl   *Cluster
	col  *metrics.Collector
}

func newRig(t *testing.T, servers int, pol policy.Policy) *rig {
	t.Helper()
	g := testGraph()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	eng := &sim.Engine{}
	col := metrics.NewCollector(10, servers)
	cl, err := New(eng, meta, pol, col, Options{
		Classes: profiles.DefaultClasses(servers), SLOSec: 0.250, NetLatencySec: 0.001, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, meta: meta, cl: cl, col: col}
}

// plan2 deploys n replicas of each task's single variant at batch 4.
func plan2(n int) *core.Plan {
	g := testGraph()
	mk := func(task pipeline.TaskID) core.Assignment {
		v := g.Tasks[task].Variants[0]
		lat := v.Latency(4)
		return core.Assignment{
			Task: task, Variant: 0, MaxBatch: 4, Replicas: n,
			QPS: 4 / lat, LatencySec: lat, Accuracy: v.Accuracy, BudgetSec: 2 * lat,
		}
	}
	p := &core.Plan{Mode: core.HardwareScaling, ServedFraction: 1}
	p.Assignments = []core.Assignment{mk(0), mk(1)}
	p.ServersUsed = 2 * n
	return p
}

func (r *rig) apply(p *core.Plan, demand float64) {
	specs := core.ExpandPlan(p)
	routes := core.MostAccurateFirst(r.meta.Graph(), specs, demand, r.meta.MultFactor)
	r.cl.ApplyPlan(p, routes)
}

func (r *rig) injectPoisson(t *testing.T, qps, duration float64, seed int64) {
	t.Helper()
	tr := &trace.Trace{Interval: duration, QPS: []float64{qps}}
	arr := tr.Arrivals(rand.New(rand.NewSource(seed)))
	for _, at := range arr {
		at := at
		r.eng.At(at, func() { r.cl.InjectRequest() })
	}
}

func TestSteadyStateServesWithinSLO(t *testing.T) {
	r := newRig(t, 8, policy.Opportunistic{})
	// Capacity per task: 4 replicas × 160 qps = 640; offer 300.
	r.apply(plan2(4), 400)
	r.injectPoisson(t, 300, 30, 1)
	r.eng.RunAll()

	s := r.col.Summarize()
	if s.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if s.ViolationRatio > 0.02 {
		t.Fatalf("violation ratio %.4f at 47%% utilization, want ≈0", s.ViolationRatio)
	}
	// End-to-end accuracy = 1.0 × 0.9.
	if math.Abs(s.MeanAccuracy-0.9) > 1e-9 {
		t.Fatalf("accuracy = %g, want 0.9", s.MeanAccuracy)
	}
}

func TestConservationInjectedEqualsCompletedPlusDropped(t *testing.T) {
	r := newRig(t, 8, policy.Opportunistic{})
	r.apply(plan2(2), 500)
	r.injectPoisson(t, 800, 10, 2) // heavy overload → drops
	r.eng.RunAll()

	if r.cl.Inflight() != 0 {
		t.Fatalf("%d requests still in flight after drain", r.cl.Inflight())
	}
	if r.cl.totalInjected != r.cl.totalCompleted+r.cl.totalDropped {
		t.Fatalf("conservation broken: injected %d != completed %d + dropped %d",
			r.cl.totalInjected, r.cl.totalCompleted, r.cl.totalDropped)
	}
	if r.cl.totalDropped == 0 {
		t.Fatal("expected drops under 2.5× overload")
	}
}

func TestNoRoutesDropsAtIngress(t *testing.T) {
	r := newRig(t, 4, policy.Opportunistic{})
	r.eng.At(1, func() { r.cl.InjectRequest() })
	r.eng.RunAll()
	if r.cl.totalDropped != 1 || r.cl.totalCompleted != 0 {
		t.Fatalf("dropped=%d completed=%d, want 1/0 before any plan", r.cl.totalDropped, r.cl.totalCompleted)
	}
}

func TestThroughputMatchesBatchProfile(t *testing.T) {
	// One replica per task at batch 4: per-replica rate 4/lat(4) = 160/s.
	// Offered 150/s must be served nearly fully; offered load beyond
	// capacity is shed by the routing table.
	r := newRig(t, 2, policy.NoDrop{})
	r.apply(plan2(1), 150)
	r.injectPoisson(t, 150, 20, 3)
	r.eng.RunAll()
	served := float64(r.cl.totalCompleted) / 20
	if served < 135 {
		t.Fatalf("served %.1f qps with 160 qps capacity at offered 150", served)
	}
}

func TestReconfigurationKeepsMatchingWorkers(t *testing.T) {
	r := newRig(t, 8, policy.Opportunistic{})
	r.cl.opts.SwapLatencySec = 1.0
	r.apply(plan2(2), 100)
	swaps := r.cl.totalSwaps
	// Re-apply an identical plan: no worker should reload a model.
	r.apply(plan2(2), 100)
	if r.cl.totalSwaps != swaps {
		t.Fatalf("identical plan triggered %d swaps", r.cl.totalSwaps-swaps)
	}
	// Growing the deployment swaps only the new workers.
	r.apply(plan2(3), 100)
	if got := r.cl.totalSwaps - swaps; got != 2 {
		t.Fatalf("grew by 2 replicas but %d swaps", got)
	}
}

func TestScaleDownShutsWorkersOff(t *testing.T) {
	r := newRig(t, 8, policy.Opportunistic{})
	r.apply(plan2(4), 100)
	if got := r.cl.ActiveServers(); got != 8 {
		t.Fatalf("active = %d, want 8", got)
	}
	r.apply(plan2(1), 100)
	if got := r.cl.ActiveServers(); got != 2 {
		t.Fatalf("active after scale-down = %d, want 2", got)
	}
}

func TestHeartbeatRefinesMultFactor(t *testing.T) {
	r := newRig(t, 4, policy.Opportunistic{})
	r.apply(plan2(2), 200)
	r.injectPoisson(t, 200, 10, 4)
	done := false
	r.eng.At(9.5, func() { r.cl.Heartbeat(); done = true })
	r.eng.RunAll()
	if !done {
		t.Fatal("heartbeat not executed")
	}
	// The observed factor is a Poisson(1.0) sample mean — near 1.0.
	got := r.meta.MultFactor(0, 0)
	if got < 0.8 || got > 1.2 {
		t.Fatalf("refined mult factor = %g, want ≈1.0", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		r := newRig(t, 8, policy.Opportunistic{})
		r.apply(plan2(2), 300)
		r.injectPoisson(t, 300, 15, 7)
		r.eng.RunAll()
		return r.cl.totalCompleted, r.cl.totalDropped
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, d1, c2, d2)
	}
}

func TestQueueCapBoundsQueues(t *testing.T) {
	r := newRig(t, 2, policy.NoDrop{})
	r.apply(plan2(1), 100)
	// Slam 10× capacity for 5 seconds; queue-full drops must appear and
	// queues must never exceed their cap.
	r.injectPoisson(t, 1600, 5, 8)
	maxQ := 0
	r.eng.At(2.5, func() {
		for _, w := range r.cl.workers {
			if len(w.queue) > maxQ {
				maxQ = len(w.queue)
			}
		}
	})
	r.eng.RunAll()
	if r.cl.dropsQueueFull == 0 {
		t.Fatal("no queue-full drops under 10× overload")
	}
	cap0 := (&core.WorkerSpec{QPS: 160, MaxBatch: 4}).QueueCap(r.cl.opts.QueueFactor, r.cl.opts.SLOSec)
	if maxQ > cap0 {
		t.Fatalf("queue grew to %d, cap %d", maxQ, cap0)
	}
}

func TestInteriorOutputTaskRecordsBothSinks(t *testing.T) {
	// Social-media-style graph: task 0 is an output AND feeds task 1.
	g := &pipeline.Graph{
		Name: "io",
		Tasks: []pipeline.Task{
			{ID: 0, Name: "cls", Output: true, Variants: []pipeline.Variant{
				{Name: "c", Accuracy: 1.0, Alpha: 0.005, Beta: 0.005, MultFactor: 1.0},
			}, Children: []pipeline.Child{{Task: 1, BranchRatio: 1.0}}},
			{ID: 1, Name: "cap", Variants: []pipeline.Variant{
				{Name: "p", Accuracy: 0.8, Alpha: 0.005, Beta: 0.005, MultFactor: 1.0},
			}},
		},
	}
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	eng := &sim.Engine{}
	col := metrics.NewCollector(10, 4)
	cl, err := New(eng, meta, policy.Opportunistic{}, col, Options{
		Classes: profiles.DefaultClasses(4), SLOSec: 0.250, NetLatencySec: 0.001, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := plan2(2)
	specs := core.ExpandPlan(plan)
	routes := core.MostAccurateFirst(g, specs, 100, meta.MultFactor)
	cl.ApplyPlan(plan, routes)
	tr := &trace.Trace{Interval: 10, QPS: []float64{100}}
	for _, at := range tr.Arrivals(rand.New(rand.NewSource(9))) {
		at := at
		eng.At(at, func() { cl.InjectRequest() })
	}
	eng.RunAll()
	s := col.Summarize()
	// Request accuracy averages the two sink results: (1.0 + 0.8)/2 = 0.9
	// for requests whose captioning branch materialized (Poisson mean 1 can
	// yield 0 children → accuracy 1.0 for those), so the mean sits in
	// (0.9, 1.0).
	if s.MeanAccuracy <= 0.9 || s.MeanAccuracy >= 1.0 {
		t.Fatalf("accuracy = %g, want in (0.9, 1.0)", s.MeanAccuracy)
	}
}
