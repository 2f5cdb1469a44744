package core

import (
	"testing"
	"time"

	"loki/internal/profiles"
)

// benchAllocator builds the traffic-analysis allocator the planner
// benchmarks solve against.
func benchAllocator(b *testing.B, disableReuse bool) *Allocator {
	b.Helper()
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := NewMetadataStore(g, prof, 0.250, profiles.Batches)
	a, err := NewAllocator(meta, AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30, SolveTimeLimit: 2 * time.Second,
		DisableReuse: disableReuse,
	})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkAllocate measures one uncapped Resource Manager solve over a
// cycling demand walk — the desire-pass workload — with the planner's
// cross-solve memory on (the default) and off. Besides the timings it reports
// the search effort of one untimed pass over the walk on a fresh allocator,
// as simplex pivots per branch-and-bound node and nodes per solve: the walk's
// solves are proof-terminated, so these are counts that repeat exactly
// whatever b.N is, and CI's node-LP cost gate holds the first under a third
// of 17.5556, its value when every node was solved from scratch.
func BenchmarkAllocate(b *testing.B) {
	demands := []float64{110, 230, 180, 320, 140, 280}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"reuse", false}, {"cold", true}} {
		b.Run(mode.name, func(b *testing.B) {
			census := benchAllocator(b, mode.disable)
			nodes, pivots := 0, 0
			for _, d := range demands {
				plan, err := census.Allocate(d)
				if err != nil {
					b.Fatal(err)
				}
				nodes += plan.SolveStats.Nodes
				pivots += plan.SolveStats.LPIters
			}

			a := benchAllocator(b, mode.disable)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Allocate(demands[i%len(demands)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pivots)/float64(nodes), "pivots/node")
			b.ReportMetric(float64(nodes)/float64(len(demands)), "nodes/solve")
		})
	}
}

// BenchmarkHeteroAllocate measures one Resource Manager allocation on a
// homogeneous 20-server pool versus the 3-class heterogeneous fleet of the
// hetero experiment (24 servers, class-expanded configuration graph), over a
// cycling demand walk. The hetero MILP carries one capacity row per class
// and |classes|× the configurations, so its solve time bounds the cost of
// the hardware-class refactor; milp_solves counts branch-and-bound
// invocations per iteration. One untimed pass over the walk on a fresh
// allocator takes the census of the plans' final solves: pivots/node (node
// relaxations re-optimised warm cost tens of pivots, solved from scratch
// hundreds), nodes/solve, and truncated_share, the share a resource limit
// stopped — on the priced fleet that includes every plan the hardware step
// returns, which is cut at its first plateau on purpose. The recorded
// baseline lives in BENCH_hetero.json.
func BenchmarkHeteroAllocate(b *testing.B) {
	fleets := []struct {
		name    string
		classes []profiles.Class
	}{
		{"homogeneous", profiles.DefaultClasses(20)},
		{"hetero3", []profiles.Class{
			{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: 3.2},
			{Name: "v100", Count: 8, Speed: 1.0, CostPerHour: 1.2},
			{Name: "t4", Count: 12, Speed: 0.5, CostPerHour: 0.55},
		}},
	}
	demands := []float64{150, 350, 600, 250, 500}
	for _, f := range fleets {
		b.Run(f.name, func(b *testing.B) {
			g := profiles.TrafficTree()
			prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, f.classes)
			meta := NewMetadataStoreHetero(g, f.classes, prof, 0.250, profiles.Batches)
			newAlloc := func() *Allocator {
				a, err := NewAllocator(meta, AllocatorOptions{
					NetLatencySec: 0.002, KeepWarm: true,
					Headroom: 0.30, SolveTimeLimit: 2 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				return a
			}
			nodes, pivots, truncated := 0, 0, 0
			census := newAlloc()
			for _, d := range demands {
				plan, err := census.Allocate(d)
				if err != nil {
					b.Fatal(err)
				}
				nodes += plan.SolveStats.Nodes
				pivots += plan.SolveStats.LPIters
				if plan.SolveStats.Truncated {
					truncated++
				}
			}

			alloc := newAlloc()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alloc.Allocate(demands[i%len(demands)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(alloc.Perf().MILPSolves)/float64(b.N), "milp_solves")
			b.ReportMetric(float64(pivots)/float64(nodes), "pivots/node")
			b.ReportMetric(float64(nodes)/float64(len(demands)), "nodes/solve")
			b.ReportMetric(float64(truncated)/float64(len(demands)), "truncated_share")
		})
	}
}

// BenchmarkMaxCapacity measures the admission-cap bisection a front-door
// tenant runs at control-plane build time: traffic-analysis on 20 servers
// with the serving options, on a fresh allocator each time, as MultiSystem
// builds one. Besides the time it reports the branch-and-bound solves and
// nodes the probes spent; the solve at the cap itself is left to the
// tenant's first plan there.
func BenchmarkMaxCapacity(b *testing.B) {
	solves, nodes := 0, 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := capacityAllocator(b, "traffic-analysis", 20, 0)
		b.StartTimer()
		a.MaxCapacity(0, 20000)
		p := a.Perf()
		solves += p.MILPSolves
		nodes += p.nodes
	}
	b.ReportMetric(float64(solves)/float64(b.N), "milp_solves/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// The tenant plan cache key is a value type packing up to maxKeyClasses
// per-class caps inline; building it must not allocate — at fleet scale every
// tenant constructs one per round, and the old string-concat key put that on
// the hot path's garbage bill.
func TestPlanKeyNoAlloc(t *testing.T) {
	caps := []int{4, 12, 7}
	spilled := false
	allocs := testing.AllocsPerRun(200, func() {
		k := planKey(17, caps)
		if k.big != "" {
			spilled = true
		}
	})
	if spilled {
		t.Fatal("3-class caps spilled to the string overflow key")
	}
	if allocs != 0 {
		t.Fatalf("planKey allocates %.1f objects per call, want 0", allocs)
	}

	// Past maxKeyClasses the key degrades to the string encoding but stays
	// correct: distinct caps produce distinct keys.
	wide := make([]int, maxKeyClasses+2)
	wide[maxKeyClasses] = 9
	other := append([]int(nil), wide...)
	other[maxKeyClasses] = 10
	if planKey(3, wide) == planKey(3, other) {
		t.Fatal("overflow keys collide for distinct caps")
	}
	if planKey(3, wide) != planKey(3, wide) {
		t.Fatal("overflow key not reproducible")
	}
}

// A tenant plan-cache hit is allocation-free end to end: key construction,
// lookup, and the reuse decision. This is what keeps clean tenants cheap in
// the incremental re-solve path.
func TestTenantCacheHitNoAlloc(t *testing.T) {
	tn := arbiterTenant(t, "a", 20, 0)
	if _, err := tn.solve(210, []int{14}, legacyBucketRatio); err != nil {
		t.Fatal(err)
	}
	caps := []int{14}
	var solveErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tn.solve(210, caps, legacyBucketRatio); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs != 0 {
		t.Fatalf("cache-hit solve allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkAllocateCapped measures capped re-solves at a fixed demand over
// cycling server budgets — the contention workload the arbiter generates —
// where only the cluster row's RHS changes between iterations on the reuse
// path, while the cold path builds a step model per solve.
func BenchmarkAllocateCapped(b *testing.B) {
	caps := []int{12, 14, 10, 16, 13}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"reuse", false}, {"cold", true}} {
		b.Run(mode.name, func(b *testing.B) {
			a := benchAllocator(b, mode.disable)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AllocateCapped(210, []int{caps[i%len(caps)]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
