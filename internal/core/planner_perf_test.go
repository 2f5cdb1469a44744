package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// TestCappedSolveReusesBuiltModel: a capped re-solve at the same demand must
// reuse the desire pass's built LP model (only the cluster row's RHS
// differs) instead of rebuilding the formulation.
func TestCappedSolveReusesBuiltModel(t *testing.T) {
	a := treeAllocator(t, 20, 0.250)
	if _, err := a.Allocate(150); err != nil {
		t.Fatal(err)
	}
	builds := a.Perf().ModelBuilds
	if builds == 0 {
		t.Fatal("expected at least one model build")
	}
	if _, err := a.AllocateCapped(150, []int{12}); err != nil {
		t.Fatal(err)
	}
	perf := a.Perf()
	if perf.ModelReuses == 0 {
		t.Fatalf("capped re-solve rebuilt the model: %+v", perf)
	}
}

// TestReusePreservesPlans drives an allocator through a seeded demand walk of
// uncapped and capped solves and holds every plan to the one a copy of it
// returns from fresh solver state: no standing step model, no warm start, no
// LP buffers. Where the reference search ends in proof the plans must be
// identical. Where the gap test ends it, the same search may return a
// verified warm start instead, which must then be at least as good in the
// step's objective: served fraction first, accuracy second. Both walks run
// every search to one of those two ends, and the chain's meets the second
// (a capped step-2 solve at 140 qps on 5 servers).
func TestReusePreservesPlans(t *testing.T) {
	for _, c := range []struct {
		name             string
		alloc            *Allocator
		demand           float64
		steps            int
		minCap, capRange int
	}{
		{"traffic-tree-20", treeAllocator(t, 20, 0.250), 400, 12, 8, 8},
		{"traffic-chain-10", chainAllocator(t, 10, 0.250), 150, 24, 3, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			warm := c.alloc
			cold := func() *Allocator {
				a := *warm
				a.state = newSolverState()
				return &a
			}
			check := func(what string, demand float64, pw, pc *Plan) {
				t.Helper()
				switch s := pc.SolveStats; {
				case s.Truncated:
					t.Fatalf("%s reference solve at demand %.1f was cut by a resource limit: %+v", what, demand, s)
				case s.Proven:
					comparePlans(t, what, demand, pw, pc)
				case pw.SolveStats.Step != s.Step || pw.ServedFraction < pc.ServedFraction ||
					pw.ServedFraction == pc.ServedFraction && pw.ExpectedAccuracy < pc.ExpectedAccuracy:
					t.Fatalf("%s plan at demand %.1f is worse than the gap-terminated reference:\n%+v\n%+v", what, demand, pw, pc)
				}
			}
			rng := rand.New(rand.NewSource(9))
			demand := c.demand
			for step := 0; step < c.steps; step++ {
				demand = math.Max(20, demand*(0.85+rng.Float64()*0.4))
				pw, err := warm.Allocate(demand)
				if err != nil {
					t.Fatal(err)
				}
				pc, err := cold().Allocate(demand)
				if err != nil {
					t.Fatal(err)
				}
				check("uncapped", demand, pw, pc)

				caps := []int{c.minCap + rng.Intn(c.capRange)}
				pw, err = warm.AllocateCapped(demand, caps)
				if err != nil {
					t.Fatal(err)
				}
				pc, err = cold().AllocateCapped(demand, caps)
				if err != nil {
					t.Fatal(err)
				}
				check("capped", demand, pw, pc)
			}
			if warm.Perf().ModelReuses == 0 {
				t.Fatal("the allocator never reused a model; the test is not exercising the reuse path")
			}
		})
	}
}

// comparePlans requires two plans to describe the identical allocation
// (solver-effort stats aside, which legitimately differ under reuse or
// another solve order).
func comparePlans(t *testing.T, what string, demand float64, a, b *Plan) {
	t.Helper()
	if a.Mode != b.Mode || a.ServersUsed != b.ServersUsed ||
		a.ServedFraction != b.ServedFraction || a.ExpectedAccuracy != b.ExpectedAccuracy ||
		!reflect.DeepEqual(a.Assignments, b.Assignments) || !reflect.DeepEqual(a.PathFlows, b.PathFlows) {
		t.Fatalf("%s plan at demand %.1f diverged:\n%+v\n%+v", what, demand, a, b)
	}
}

// TestDemandBucketConsistentWithThreshold pins the arbiter's cache
// quantization to its adaptation threshold: demands the controller would
// treat as "moved" (≥ threshold apart, relative) never share a cache
// bucket, so coarser caching can only coalesce demand levels the control
// policy already declared immaterial.
func TestDemandBucketConsistentWithThreshold(t *testing.T) {
	const thr = 0.2
	ratio := 1 + thr
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		d := 1 + rng.Float64()*2000
		up := d * (1 + thr) // exactly at the threshold: moved() fires
		if demandBucket(d, ratio) == demandBucket(up, ratio) {
			t.Fatalf("demands %.3f and %.3f are %.0f%% apart (moved) but share bucket %d",
				d, up, thr*100, demandBucket(d, ratio))
		}
		// And bucket-mates stay within the indifference band.
		lo := math.Pow(ratio, float64(demandBucket(d, ratio))-0.5)
		hi := math.Pow(ratio, float64(demandBucket(d, ratio))+0.5)
		if hi/lo > ratio*(1+1e-9) {
			t.Fatalf("bucket %d spans ratio %.4f > %.4f", demandBucket(d, ratio), hi/lo, ratio)
		}
	}
	// The single-tenant paths keep the legacy fine granularity.
	mc := &MultiController{tenants: []*Tenant{{}}}
	if got := mc.bucketRatio(); got != legacyBucketRatio {
		t.Fatalf("single-tenant bucket ratio = %v, want legacy %v", got, legacyBucketRatio)
	}
	mc2 := &MultiController{tenants: []*Tenant{{}, {}}}
	if got := mc2.bucketRatio(); got != 1.2 {
		t.Fatalf("multi-tenant bucket ratio = %v, want 1.2 (1 + default threshold)", got)
	}
}

// TestParallelPlanningMatchesSequential drives two identical two-tenant
// controllers — one fanning solves out across goroutines, one stepped at
// GOMAXPROCS 1, where the arbiter solves strictly sequentially — through the
// same contended demand walk and requires identical grants and plans at
// every step. GOMAXPROCS is raised for the parallel controller so it really
// runs concurrently even on small CI hosts.
func TestParallelPlanningMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	build := func() *MultiController {
		var tenants []*Tenant
		for _, name := range []string{"chain-a", "chain-b"} {
			g := profiles.TrafficChain()
			prof := (&profiles.Profiler{Seed: 11}).ProfileGraph(g, profiles.Batches)
			meta := NewMetadataStore(g, prof, 0.250, profiles.Batches)
			alloc, err := NewAllocator(meta, AllocatorOptions{
				Servers: 10, NetLatencySec: 0.002, KeepWarm: true,
				Headroom: 0.30,
			})
			if err != nil {
				t.Fatal(err)
			}
			tenants = append(tenants, &Tenant{Name: name, Meta: meta, Alloc: alloc})
		}
		mc, err := NewMultiController(10, tenants)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	par := build()
	seq := build()

	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 8; step++ {
		// Walk both controllers through identical demand observations,
		// spiking tenant 0 so the pool contends and capped re-solves run.
		d0 := 100 + rng.Float64()*500
		d1 := 80 + rng.Float64()*300
		for _, mc := range []*MultiController{par, seq} {
			procs := 4
			if mc == seq {
				procs = 1
			}
			runtime.GOMAXPROCS(procs)
			mc.tenants[0].Meta.ObserveDemand(d0)
			mc.tenants[1].Meta.ObserveDemand(d1)
			if err := mc.Step(true); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(par.Grants(), seq.Grants()) {
			t.Fatalf("step %d: grants diverged: parallel %v, sequential %v", step, par.Grants(), seq.Grants())
		}
		for i := range par.tenants {
			comparePlans(t, par.tenants[i].Name, d0, par.PlanOf(i), seq.PlanOf(i))
		}
	}
}

// TestPlansIgnoreTheClock: every planner search stops on counted work, so a
// seeded demand walk publishes the same plans on an idle host and beside
// busy-looping goroutines. The walk is lokibench's plan-milp
// period at seed 11, under its 500 ms ceiling: the traffic tree and social
// media sharing 20 servers with the plan cache off, the tenants a quarter of
// a ±50 % sinusoid apart, over the first 20 of its 45 rounds. Its slowest
// search proves a step-2 plan after 311 nodes, about 70 ms on an idle 2-vCPU host, which a loaded host used to
// carry past a stall cutoff armed on the clock at 125 ms.
func TestPlansIgnoreTheClock(t *testing.T) {
	const period, rounds = 45, 20 // the slowest search comes in round 18
	means := []float64{530, 305}
	rng := rand.New(rand.NewSource(1))
	levels := make([][]float64, period)
	for k := range levels {
		for i, mean := range means {
			phase := 2*math.Pi*float64(k)/period + float64(i)*math.Pi/2
			levels[k] = append(levels[k], mean*(1+0.5*math.Sin(phase))*(1+0.1*rng.Float64()-0.05))
		}
	}
	walk := func() ([]*Plan, SolverPerf) {
		var tenants []*Tenant
		var allocs []*Allocator
		for _, g := range []*pipeline.Graph{profiles.TrafficTree(), profiles.SocialMedia()} {
			classes := profiles.DefaultClasses(20)
			prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
			meta := NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
			alloc, err := NewAllocator(meta, AllocatorOptions{
				Servers: 20, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30, SolveTimeLimit: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			allocs = append(allocs, alloc)
			tenants = append(tenants, &Tenant{Name: g.Name, Meta: meta, Alloc: alloc, RouteHeadroom: 0.30, CacheDisabled: true})
		}
		m, err := NewMultiController(20, tenants)
		if err != nil {
			t.Fatal(err)
		}
		var plans []*Plan
		for r := 0; r < rounds; r++ {
			for i, tn := range tenants {
				for k := 0; k < 8; k++ {
					tn.Meta.ObserveDemand(levels[(r+2)%period][i])
				}
			}
			if err := m.Step(true); err != nil {
				t.Fatal(err)
			}
			for i := range tenants {
				plans = append(plans, m.PlanOf(i))
			}
		}
		var perf SolverPerf
		for _, a := range allocs {
			p := a.Perf()
			perf.MILPSolves += p.MILPSolves
			perf.truncated += p.truncated
			perf.ceilings += p.ceilings
		}
		return plans, perf
	}

	idle, perf := walk()
	longest := 0
	for _, p := range idle {
		longest = max(longest, p.SolveStats.Nodes)
	}
	t.Logf("%d searches, longest plan search %d nodes, %d truncated", perf.MILPSolves, longest, perf.truncated)
	if longest < 300 || perf.ceilings != 0 {
		t.Fatalf("longest plan search %d nodes, %d ceiling stops: the walk no longer holds the search it was chosen for", longest, perf.ceilings)
	}

	// Two spinners per execution slot leave each solve about a third of a
	// core: enough to carry the 70 ms search past 125 ms on every run.
	stop := make(chan struct{})
	var spinning sync.WaitGroup
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		spinning.Add(1)
		go func() {
			defer spinning.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	busy, busyPerf := walk()
	close(stop)
	spinning.Wait()
	if busyPerf.ceilings != 0 {
		t.Fatalf("%d searches reached the wall-clock ceiling beside the busy goroutines", busyPerf.ceilings)
	}
	for i := range idle {
		if !reflect.DeepEqual(idle[i], busy[i]) {
			t.Fatalf("round %d tenant %d: the plan published beside busy goroutines differs from the idle run's\nidle: %+v\nbusy: %+v",
				i/2, i%2, idle[i].SolveStats, busy[i].SolveStats)
		}
	}
}
