package core

import (
	"math"
	"testing"

	"loki/internal/pipeline"
	"loki/internal/profiles"
	"loki/internal/telemetry"
)

func chainAllocator(t *testing.T, servers int, sloSec float64) *Allocator {
	t.Helper()
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := NewMetadataStore(g, prof, sloSec, profiles.Batches)
	a, err := NewAllocator(meta, AllocatorOptions{
		Servers: servers, NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30, // the serving default; see experiments.RunConfig
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func treeAllocator(t *testing.T, servers int, sloSec float64) *Allocator {
	t.Helper()
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := NewMetadataStore(g, prof, sloSec, profiles.Batches)
	a, err := NewAllocator(meta, AllocatorOptions{
		Servers: servers, NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// expectedTaskLoad computes the demand every task of a plan must absorb,
// propagating the plan's path flows and the variants' multiplicative
// factors, for feasibility checking.
func expectedTaskLoad(t *testing.T, a *Allocator, plan *Plan, demand float64) map[pipeline.TaskID]float64 {
	t.Helper()
	g := a.meta.Graph()
	load := map[pipeline.TaskID]float64{}
	sinks := g.Sinks()
	sinkOf := map[pipeline.TaskID]bool{}
	for _, s := range sinks {
		sinkOf[s] = true
	}
	// Use the first sink's flow decomposition per task, mirroring the
	// allocator's canonical accounting.
	seen := map[pipeline.TaskID]map[string]bool{}
	for _, pf := range plan.PathFlows {
		m := 1.0
		key := ""
		for h, task := range pf.Tasks {
			_, ratio := g.Parent(task)
			if h == 0 {
				ratio = 1
			}
			m *= ratio
			key += string(rune('A'+pf.Variants[h])) + string(rune('a'+h))
			if seen[task] == nil {
				seen[task] = map[string]bool{}
			}
			// Each sink decomposition counts a prefix once; accumulate per
			// distinct sink to avoid double counting across sinks. Use the
			// sink of the path.
			sk := key + "|" + string(rune('0'+pf.Tasks[len(pf.Tasks)-1]))
			_ = sk
			load[task] += demand * pf.Fraction * m
			v := g.Tasks[task].Variants[pf.Variants[h]]
			m *= v.MultFactor
		}
	}
	return load
}

func TestHardwareScalingAtLowDemand(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	plan, err := a.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != HardwareScaling {
		t.Fatalf("mode = %v, want hardware-scaling", plan.Mode)
	}
	if plan.ServersUsed >= 20 {
		t.Fatalf("low demand should not need the whole cluster, used %d", plan.ServersUsed)
	}
	if math.Abs(plan.ExpectedAccuracy-1.0) > 1e-9 {
		t.Fatalf("hardware scaling must keep max accuracy, got %g", plan.ExpectedAccuracy)
	}
	// Only most accurate variants hosted.
	g := a.meta.Graph()
	for _, as := range plan.Assignments {
		if as.Variant != g.Tasks[as.Task].MostAccurate() {
			t.Fatalf("hardware scaling hosted non-best variant %d of task %d", as.Variant, as.Task)
		}
	}
}

func TestKeepWarmAtZeroDemand(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	plan, err := a.Allocate(0)
	if err != nil {
		t.Fatal(err)
	}
	perTask := map[pipeline.TaskID]int{}
	for _, as := range plan.Assignments {
		perTask[as.Task] += as.Replicas
	}
	for i := range a.meta.Graph().Tasks {
		if perTask[pipeline.TaskID(i)] < 1 {
			t.Fatalf("task %d has no warm replica", i)
		}
	}
}

func TestAccuracyScalingKicksInPastClusterLimit(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	plan, err := a.Allocate(900)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != AccuracyScaling {
		t.Fatalf("mode = %v, want accuracy-scaling", plan.Mode)
	}
	if plan.ExpectedAccuracy >= 1.0 {
		t.Fatal("accuracy scaling should sacrifice some accuracy")
	}
	if plan.ExpectedAccuracy < 0.85 {
		t.Fatalf("accuracy dropped too far at moderate overload: %g", plan.ExpectedAccuracy)
	}
}

func TestSaturationBeyondMaxCapacity(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	plan, err := a.Allocate(4000)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != Saturated {
		t.Fatalf("mode = %v, want saturated", plan.Mode)
	}
	if plan.ServedFraction >= 1 || plan.ServedFraction <= 0 {
		t.Fatalf("served fraction = %g, want in (0,1)", plan.ServedFraction)
	}
}

func TestServerCountGrowsWithDemand(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	prev := 0
	for _, d := range []float64{50, 150, 300, 450} {
		plan, err := a.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		if plan.ServersUsed < prev {
			t.Fatalf("servers shrank from %d to %d at demand %g", prev, plan.ServersUsed, d)
		}
		prev = plan.ServersUsed
	}
}

func TestAccuracyMonotoneNonIncreasingInDemand(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	prev := 1.1
	for _, d := range []float64{400, 700, 1000, 1300, 1600} {
		plan, err := a.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		// Allow the solver's 0.2% gap plus a hair of slack.
		if plan.ExpectedAccuracy > prev+0.005 {
			t.Fatalf("accuracy rose from %.4f to %.4f at demand %g", prev, plan.ExpectedAccuracy, d)
		}
		prev = plan.ExpectedAccuracy
	}
}

func TestPlanRespectsClusterSize(t *testing.T) {
	for _, d := range []float64{100, 600, 1200, 3000} {
		a := chainAllocator(t, 20, 0.250)
		plan, err := a.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		if plan.ServersUsed > 20 {
			t.Fatalf("plan uses %d servers on a 20-server cluster (demand %g)", plan.ServersUsed, d)
		}
		replicas := 0
		for _, as := range plan.Assignments {
			replicas += as.Replicas
		}
		if replicas != plan.ServersUsed {
			t.Fatalf("%d replicas, ServersUsed = %d", replicas, plan.ServersUsed)
		}
	}
}

func TestPlanCapacityCoversLoad(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	for _, d := range []float64{200, 800, 1500} {
		plan, err := a.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Mode == Saturated {
			continue
		}
		load := expectedTaskLoad(t, a, plan, d)
		capacity := map[pipeline.TaskID]float64{}
		for _, as := range plan.Assignments {
			capacity[as.Task] += float64(as.Replicas) * as.QPS
		}
		for task, l := range load {
			if cap := capacity[task]; cap < l*0.999 {
				t.Fatalf("demand %g: task %d capacity %.1f < load %.1f", d, task, cap, l)
			}
		}
	}
}

func TestPathFlowsRespectSLOBudget(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	plan, err := a.Allocate(1200)
	if err != nil {
		t.Fatal(err)
	}
	prof := a.meta.Profiles()
	for _, pf := range plan.PathFlows {
		lat := 0.0
		for h, task := range pf.Tasks {
			l, ok := prof[task][pf.Variants[h]].Latency(pf.Batches[h])
			if !ok {
				t.Fatalf("unprofiled batch %d", pf.Batches[h])
			}
			lat += l
		}
		budget := 0.250/2 - float64(len(pf.Tasks))*0.002
		if lat > budget+1e-9 {
			t.Fatalf("path latency %.1fms exceeds budget %.1fms", lat*1e3, budget*1e3)
		}
	}
}

func TestPathFlowsSumToServedFractionPerSink(t *testing.T) {
	a := treeAllocator(t, 20, 0.250)
	for _, d := range []float64{300, 900} {
		plan, err := a.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		bySink := map[pipeline.TaskID]float64{}
		for _, pf := range plan.PathFlows {
			bySink[pf.Tasks[len(pf.Tasks)-1]] += pf.Fraction
		}
		for sink, sum := range bySink {
			if math.Abs(sum-plan.ServedFraction) > 1e-6 {
				t.Fatalf("demand %g sink %d: flows sum to %.6f, want %.6f", d, sink, sum, plan.ServedFraction)
			}
		}
		if len(bySink) != 2 {
			t.Fatalf("want flows toward both sinks, got %v", bySink)
		}
	}
}

func TestTreePipelineConsistencyAcrossSinks(t *testing.T) {
	// The fraction of traffic served by each detector variant must agree
	// between the car-classification and facial-recognition decompositions.
	a := treeAllocator(t, 20, 0.250)
	plan, err := a.Allocate(700)
	if err != nil {
		t.Fatal(err)
	}
	perSink := map[pipeline.TaskID]map[int]float64{}
	for _, pf := range plan.PathFlows {
		sink := pf.Tasks[len(pf.Tasks)-1]
		if perSink[sink] == nil {
			perSink[sink] = map[int]float64{}
		}
		perSink[sink][pf.Variants[0]] += pf.Fraction
	}
	if len(perSink) != 2 {
		t.Fatalf("want 2 sinks, got %d", len(perSink))
	}
	var sinks []pipeline.TaskID
	for s := range perSink {
		sinks = append(sinks, s)
	}
	for v, frac := range perSink[sinks[0]] {
		if math.Abs(perSink[sinks[1]][v]-frac) > 1e-6 {
			t.Fatalf("detector variant %d: flow %.4f via sink %d vs %.4f via sink %d",
				v, frac, sinks[0], perSink[sinks[1]][v], sinks[1])
		}
	}
}

func TestTightSLOIsRejectedWhenInfeasible(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	// 20ms SLO: even batch-1 latencies exceed the halved budget.
	meta := NewMetadataStore(g, prof, 0.020, profiles.Batches)
	if _, err := NewAllocator(meta, AllocatorOptions{Servers: 20}); err == nil {
		t.Fatal("want error for an SLO no path can meet")
	}
}

func TestTighterSLONeverImprovesAccuracy(t *testing.T) {
	prev := -1.0
	for _, slo := range []float64{0.150, 0.200, 0.300, 0.400} {
		a := chainAllocator(t, 20, slo)
		plan, err := a.Allocate(1000)
		if err != nil {
			t.Fatal(err)
		}
		acc := plan.ExpectedAccuracy * plan.ServedFraction
		if acc < prev-0.01 {
			t.Fatalf("served accuracy fell from %.4f to %.4f when relaxing SLO to %v", prev, acc, slo)
		}
		prev = acc
	}
}

func TestMinPathAccuracyFloor(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := NewMetadataStore(g, prof, 0.250, profiles.Batches)
	a, err := NewAllocator(meta, AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002, MinPathAccuracy: 0.85,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Allocate(2500) // deep overload
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range plan.PathFlows {
		if pf.Accuracy < 0.85 {
			t.Fatalf("path accuracy %.3f below the 0.85 floor", pf.Accuracy)
		}
	}
}

func TestFigure1PhaseBoundaries(t *testing.T) {
	// The calibration target from Figure 1: hardware scaling saturates
	// around 560 QPS on 20 servers, and accuracy scaling extends capacity
	// to roughly 2.5-3.5× that.
	a := chainAllocator(t, 20, 0.250)
	hwLimit := 0.0
	for d := 400.0; d <= 800; d += 20 {
		plan, err := a.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Mode == HardwareScaling {
			hwLimit = d
		}
	}
	if hwLimit < 450 || hwLimit > 700 {
		t.Fatalf("hardware-scaling limit %.0f QPS, want ≈560 (450-700)", hwLimit)
	}
	maxCap := a.MaxCapacity(hwLimit, 4000)
	if ratio := maxCap / hwLimit; ratio < 2.0 || ratio > 4.0 {
		t.Fatalf("capacity gain %.2f×, want 2-4× (paper: ≈2.7-3.1×)", ratio)
	}
}

func TestBudgetsAreTwiceBatchLatency(t *testing.T) {
	a := chainAllocator(t, 20, 0.250)
	plan, err := a.Allocate(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range plan.Assignments {
		if math.Abs(as.BudgetSec-2*as.LatencySec) > 1e-12 {
			t.Fatalf("budget %.4f != 2×latency %.4f", as.BudgetSec, as.LatencySec)
		}
	}
}

// A capacity probe returns exactly Allocate's verdict, "an unsaturated plan",
// while doing only the work that decides it. Each side runs on its own fresh
// allocator with the serving options, so each carries only its own warm
// starts, over demands straddling the configuration's capacity. A truncated
// search makes a verdict timing-dependent when it ends with nothing: the
// probe's (which stops at its first integer point anyway), or one of
// Allocate's steps 1 and 2 on the way to a saturated plan. Such demands are
// skipped. A step-2 search cut after its first incumbent, or a step-3
// search, cannot change Allocate's verdict.
func TestCapacityProbeAgreesWithAllocate(t *testing.T) {
	cases := []struct {
		name     string
		servers  int
		caps     []int // nil: the uncapped allocator
		capacity float64
		factors  []float64
	}{
		{"traffic-analysis", 20, nil, 1513, []float64{0.5, 0.9, 1.1, 1.3}},
		{"chain-3class", 60, nil, 5423, []float64{0.5, 0.8, 0.9, 1.1, 1.2, 1.5}},
		{"chain-3class", 60, []int{6, 12, 12}, 2550, []float64{0.5, 0.8, 0.9, 1.1, 1.2, 1.5}},
	}
	decided := 0
	for _, c := range cases {
		probe := capacityAllocator(t, c.name, c.servers, 0)
		full := capacityAllocator(t, c.name, c.servers, 0)
		view := probe
		if c.caps != nil {
			view = probe.Capped(c.caps)
		}
		for _, f := range c.factors {
			d := f * c.capacity
			probeCut, fullCut := probe.Perf().truncated, full.Perf().truncated
			got, err := view.servable(d)
			if err != nil {
				t.Fatal(err)
			}
			var plan *Plan
			if c.caps != nil {
				plan, err = full.AllocateCapped(d, c.caps)
			} else {
				plan, err = full.Allocate(d)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := plan.Mode != Saturated
			probeCut = probe.Perf().truncated - probeCut
			fullCut = full.Perf().truncated - fullCut
			if plan.SolveStats.Step == int(stepSaturation) && plan.SolveStats.Truncated {
				fullCut--
			}
			t.Logf("%s caps %v at %.0f qps: probe %v (cut %d), Allocate %v (cut %d)", c.name, c.caps, d, got, probeCut, plan.Mode, fullCut)
			if probeCut > 0 || (!want && fullCut > 0) {
				continue
			}
			decided++
			if got != want {
				t.Errorf("%s caps %v at %.1f qps: probe says servable=%v, Allocate returned %v", c.name, c.caps, d, got, plan.Mode)
			}
		}
	}
	if decided < 12 {
		t.Fatalf("only %d demands were decided without truncation, want at least 12", decided)
	}
}

// A step-2 search cut before its first integer point falls through to
// saturation, and the saturation plan it ends on says that a limit had a
// hand in it: on the plan, in the allocator's and the arbiter's counters and
// in loki_planner_truncated_solves_total. Traffic-analysis on 10 servers at
// 736.5 qps proves a step-2 plan after 1,182 pivots; a work budget of 1e7
// leaves its 319 × 65 model 482, where the search holds no integer point
// and the rounded relaxation does not fit, and the saturation search that
// follows proves its own plan.
func TestCutStepMarksFallThroughPlanTruncated(t *testing.T) {
	const demand = 736.5
	cut := func() *Allocator {
		a := capacityAllocator(t, "traffic-analysis", 10, 0)
		a.opts.work = 1e7
		return a
	}
	a := cut()
	plan, err := a.Allocate(demand)
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.SolveStats; s.Step != int(stepSaturation) || !s.Proven || !s.Truncated {
		t.Fatalf("plan at %.1f qps: step %d, proven %v, truncated %v; want a proven saturation plan marked truncated",
			demand, s.Step, s.Proven, s.Truncated)
	}
	if p := a.Perf(); p.MILPSolves != 2 || p.truncated != 1 || p.ceilings != 0 {
		t.Fatalf("%d searches, %d truncated, %d on the ceiling; want the step-2 search alone cut, by its budget",
			p.MILPSolves, p.truncated, p.ceilings)
	}

	b := cut()
	tenant := &Tenant{Name: "t", Meta: b.meta, Alloc: b, RouteHeadroom: 0.30}
	m, err := NewMultiController(10, []*Tenant{tenant})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg)
	b.meta.ObserveDemand(demand)
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	if got := m.TruncatedSolves(); got != 1 {
		t.Errorf("TruncatedSolves = %d after one round that fell through a cut search, want 1", got)
	}
	counted := 0.0
	for _, p := range reg.Gather() {
		if p.Name == "loki_planner_truncated_solves_total" {
			counted += p.Value
		}
	}
	if counted != 1 {
		t.Errorf("loki_planner_truncated_solves_total = %v, want 1", counted)
	}
}
