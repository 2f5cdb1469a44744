package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"loki/internal/lp"
	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// pinAllocator is the fixture of the pin tests below: one of the two paper
// pipelines on 20 homogeneous servers, or the plan-fleet cell's 3-class
// traffic chain on 1,000.
func pinAllocator(t testing.TB, name string) *Allocator {
	t.Helper()
	opts := AllocatorOptions{Servers: 20, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30}
	var g *pipeline.Graph
	var meta *MetadataStore
	switch name {
	case "traffic-analysis", "social-media":
		g = profiles.TrafficTree()
		if name == "social-media" {
			g = profiles.SocialMedia()
		}
		meta = NewMetadataStore(g, (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches), 0.250, profiles.Batches)
	case "fleet-chain":
		g = profiles.TrafficChain()
		classes := fleetClasses()
		prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
		meta = NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
		opts.Servers = 1000
	default:
		t.Fatalf("unknown pin allocator %q", name)
	}
	a, err := NewAllocator(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// hashProblem is FNV-1a over everything a solver reads of p, in order: the
// column count, direction and objective, then per row the sense, right-hand
// side and each term's column and coefficient bits.
func hashProblem(p *lp.Problem) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(p.NumVars))
	if p.Maximize {
		put(1)
	} else {
		put(0)
	}
	for _, c := range p.Obj {
		put(math.Float64bits(c))
	}
	put(uint64(len(p.Cons)))
	for _, c := range p.Cons {
		put(uint64(c.Sense))
		put(math.Float64bits(c.RHS))
		put(uint64(len(c.Terms)))
		for _, t := range c.Terms {
			put(uint64(t.Var))
			put(math.Float64bits(t.Coef))
		}
	}
	return h.Sum64()
}

// setModel returns a's model of the step, set for the demand and a's counts.
func setModel(a *Allocator, demand float64, step stepKind) *stepModel {
	a.state.mu.Lock()
	defer a.state.mu.Unlock()
	m := a.modelFor(step)
	m.set(demand, a.counts)
	return m
}

// The accuracy-scaling and saturation models of the benchmark pipelines have
// no unusable path, so compacting the layout must not move a bit of them: the
// admission cap (MaxCapacity) and every recorded golden past the hardware
// limit depend on which vertex those searches stop at. The hashes were
// recorded from the per-(demand, step) builder this model replaced, at the
// commit before it was removed. Each demand is hashed on one model, patched
// from the previous demand, and again on a fresh one.
func TestStepModelsMatchRecordedHashes(t *testing.T) {
	type pin struct {
		demand           float64
		rows, vars       int
		accuracy, satur8 uint64
	}
	pins := map[string][]pin{
		"traffic-analysis": {
			{150, 65, 319, 0xd7d480942e038708, 0x5bf8a3bd864772ad},
			{611.5, 65, 319, 0xe5779ea9332a1090, 0x9d92ab60bb171fad},
			{1437.25, 65, 319, 0xc7730bfb49c4b938, 0x67b406531b3c72d5},
		},
		"social-media": {
			{150, 74, 258, 0x196b3ad6b80c6e69, 0xb8fe4844adcac110},
			{611.5, 74, 258, 0x3d003e4539e849f7, 0xc982919cca6e73d2},
			{1437.25, 74, 258, 0xd517d814b0b2c4dd, 0x4212c4f7e73ab1a8},
		},
		"fleet-chain": {
			{910, 128, 635, 0x5df28dfd5ecaa9aa, 0xd8285439c9411b63},
		},
	}
	for name, ps := range pins {
		a := pinAllocator(t, name)
		for _, p := range ps {
			for step, want := range map[stepKind]uint64{stepAccuracy: p.accuracy, stepSaturation: p.satur8} {
				patched := setModel(a, p.demand, step).prob
				fresh := a.buildStepModel(step)
				fresh.set(p.demand, a.counts)
				for how, prob := range map[string]*lp.Problem{"patched": patched, "fresh": fresh.prob} {
					if len(prob.Cons) != p.rows || prob.NumVars != p.vars {
						t.Errorf("%s step %d demand %v (%s): %d rows × %d columns, recorded %d × %d",
							name, step, p.demand, how, len(prob.Cons), prob.NumVars, p.rows, p.vars)
					}
					if got := hashProblem(prob); got != want {
						t.Errorf("%s step %d demand %v (%s): model hash %#x, recorded %#x",
							name, step, p.demand, how, got, want)
					}
				}
			}
		}
	}
}

// The hardware-scaling model sheds its unusable paths — 497 of the fleet
// cell's 513 — and must still prove the same optimum: the server count over
// a 40-point demand sweep equals what the padded model proved at the commit
// before it was removed (-1: the demand does not fit at full accuracy). The
// sizes pin the compaction itself.
func TestHardwareOptimumMatchesRecorded(t *testing.T) {
	pins := []struct {
		name       string
		lo, hi     float64
		rows, vars int
		servers    [40]int
	}{
		{"traffic-analysis", 10, 700, 18, 16, [40]int{
			3, 3, 3, 4, 4, 4, 5, 6, 6, 7, 7, 7, 9, 10, 10, 10, 11, 11, 11, 12,
			13, 13, 14, 14, 15, 16, 16, 17, 18, 18, 18, 19, 19, 19, -1, -1, -1, -1, -1, -1}},
		{"social-media", 10, 700, 16, 15, [40]int{
			2, 2, 2, 3, 3, 3, 3, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 9,
			9, 10, 10, 11, 11, 12, 12, 12, 13, 13, 13, 14, 15, 15, 15, 16, 16, 16, 17, 17}},
		{"fleet-chain", 50, 30000, 23, 33, [40]int{
			2, 11, 22, 32, 42, 52, 62, 72, 82, 92, 102, 112, 122, 132, 142, 153, 162, 173, 182, 193,
			205, 225, 245, 266, 286, 307, 327, 347, 367, 387, 408, 428, 449, 468, 489, 509, 529, 550, 570, 590}},
	}
	for _, p := range pins {
		a := pinAllocator(t, p.name)
		for i, want := range p.servers {
			d := p.lo + (p.hi-p.lo)*float64(i)/39
			plan, ok, _, err := a.solveStep(d, stepHardware, goalOptimize)
			if err != nil {
				t.Fatal(err)
			}
			got := -1
			if ok {
				got = plan.ServersUsed
				if !plan.SolveStats.Proven {
					t.Errorf("%s demand %.1f: step-1 optimum not proven", p.name, d)
				}
			}
			if got != want {
				t.Errorf("%s demand %.1f: step-1 optimum %d servers, recorded %d", p.name, d, got, want)
			}
		}
		if prob := setModel(a, p.lo, stepHardware).prob; len(prob.Cons) != p.rows || prob.NumVars != p.vars {
			t.Errorf("%s step-1 model is %d rows × %d columns, want %d × %d",
				p.name, len(prob.Cons), prob.NumVars, p.rows, p.vars)
		}
	}
}

// capacityAllocator builds an allocator with tenancy.go's serving options
// (under the race detector, whose slowdown the 2 s default ceiling could
// cut, a 60 s ceiling) for one of the paper pipelines on a homogeneous pool,
// or for the traffic chain on a 3-class fleet of fast 12, mid 24 and slow 24
// servers (servers 60).
func capacityAllocator(t testing.TB, name string, servers int, minAcc float64) *Allocator {
	t.Helper()
	opts := AllocatorOptions{
		Servers: servers, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
		MinPathAccuracy: minAcc,
	}
	if raceEnabled {
		opts.SolveTimeLimit = time.Minute
	}
	var meta *MetadataStore
	switch name {
	case "traffic-analysis", "social-media":
		g := profiles.TrafficTree()
		if name == "social-media" {
			g = profiles.SocialMedia()
		}
		meta = NewMetadataStore(g, (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches), 0.250, profiles.Batches)
	case "chain-3class":
		g := profiles.TrafficChain()
		classes := []profiles.Class{
			{Name: "fast", Count: 12, Speed: 2.0},
			{Name: "mid", Count: 24, Speed: 1.0},
			{Name: "slow", Count: 24, Speed: 0.5},
		}
		prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
		meta = NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
	default:
		t.Fatalf("unknown capacity allocator %q", name)
	}
	a, err := NewAllocator(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// MaxCapacity is http-overload's operating point (its admission cap) and the
// measure of the paper's effective capacity. The values below 300 servers
// were recorded from the bisection over full Allocate calls that the
// feasibility probes replaced, and the feasibility probes kept them when
// they moved from the wall-clock stall cutoff to a pivot budget. The
// 300-server pool is past the 20,000 qps the old bisection could report; it
// read 25,234–25,253 qps under the stall clock and reads 25,151.06 under the
// budget. Every probe of every row ends on its first integer point, an
// infeasible relaxation or the pivot budget, none on the wall-clock ceiling,
// so the caps are functions of the inputs and are pinned to the bisection's
// own resolution.
func TestMaxCapacityPinned(t *testing.T) {
	for _, c := range []struct {
		name    string
		servers int
		minAcc  float64
		want    float64
	}{
		{"traffic-analysis", 20, 0, 1513.3667},
		{"traffic-analysis", 20, 0.9, 1190.1856},
		{"traffic-analysis", 40, 0, 3348.9990},
		{"traffic-analysis", 100, 0, 8303.5278},
		{"social-media", 20, 0, 3531.1890},
		{"social-media", 40, 0, 7304.0771},
		{"chain-3class", 60, 0, 5422.6685},
		{"traffic-analysis", 300, 0, 25151.0620},
	} {
		a := capacityAllocator(t, c.name, c.servers, c.minAcc)
		if got := a.MaxCapacity(0, 20000); math.Abs(got-c.want) > 0.005 {
			t.Errorf("%s on %d servers (min accuracy %.1f): MaxCapacity = %.4f qps, recorded %.4f",
				c.name, c.servers, c.minAcc, got, c.want)
		}
	}
}

// An admission-capped tenant plans at exactly the capacity MaxCapacity
// returns, and its first step-2 search there starts from the probes' warm
// start: a probe's first integer point (on traffic-analysis at 20 servers a
// rounded seed at 0.51 accuracy against the optimum's 0.79). Branching on
// replica totals, the search still proves at the cap on its own: the first
// plan there is an untruncated step-2 plan within the search's 1 % gap of an
// exhaustive solve's optimum, and a second plan at the cap repeats it.
func TestFirstPlanAtMaxCapacityIsNearOptimal(t *testing.T) {
	a := capacityAllocator(t, "traffic-analysis", 20, 0)
	capacity := a.MaxCapacity(0, 20000)
	ref := capacityAllocator(t, "traffic-analysis", 20, 0)
	ref.opts.work = math.Inf(1)
	for _, alloc := range []*Allocator{a, ref} {
		plan, err := alloc.Allocate(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if plan.SolveStats.Step != int(stepAccuracy) || plan.SolveStats.Truncated {
			t.Fatalf("plan at %.2f qps (work %g): step %d, truncated %v; want an untruncated step-2 plan",
				capacity, alloc.opts.work, plan.SolveStats.Step, plan.SolveStats.Truncated)
		}
	}
	objective := func(a *Allocator) float64 {
		v := 0.0
		for i, c := range a.state.models[stepAccuracy].prob.Obj {
			v += c * a.state.lastX[stepAccuracy][i]
		}
		return v
	}
	if got, want := objective(a), objective(ref); got < want-0.01*math.Abs(want) {
		t.Fatalf("first plan at %.2f qps has objective %.4f, exhaustive optimum %.4f", capacity, got, want)
	}
	d := a.provisioned(capacity)
	first := a.extractPlan(a.state.lastX[stepAccuracy], a.state.models[stepAccuracy], d, stepAccuracy).ExpectedAccuracy
	again, err := a.Allocate(capacity)
	if err != nil {
		t.Fatal(err)
	}
	if again.ExpectedAccuracy != first {
		t.Fatalf("second plan at %.2f qps has accuracy %.4f, the first %.4f", capacity, again.ExpectedAccuracy, first)
	}
}

// MaxCapacity's probes end on counted pivots, not on the clock: with a
// 500 ms and a 30 s solve limit, fresh allocators return the same cap after
// the same branch-and-bound nodes, the values recorded here. Under the race
// detector, whose slowdown can carry a probe past 500 ms, only the 30 s limit
// runs, and it must still read the recorded values.
func TestMaxCapacityIgnoresTheClock(t *testing.T) {
	const wantCap, wantNodes = 1513.3667, 885
	for _, limit := range []time.Duration{500 * time.Millisecond, 30 * time.Second} {
		if raceEnabled && limit < time.Second {
			continue
		}
		a := capacityAllocator(t, "traffic-analysis", 20, 0)
		a.opts.SolveTimeLimit = limit
		got := a.MaxCapacity(0, 20000)
		if nodes := a.Perf().nodes; math.Abs(got-wantCap) > 0.005 || nodes != wantNodes {
			t.Errorf("MaxCapacity with a %v solve limit: %.4f qps after %d nodes, recorded %.4f after %d",
				limit, got, nodes, wantCap, wantNodes)
		}
	}
}

// The accuracy-scaling and saturation models hand branch and bound one group
// per (task, class) with more than one replica column; the hardware steps
// hand it none.
func TestStepModelGroupsAreTaskClassTotals(t *testing.T) {
	for _, name := range []string{"traffic-analysis", "fleet-chain"} {
		a := pinAllocator(t, name)
		for _, step := range []stepKind{stepHardware, stepHardwareSat, stepAccuracy, stepSaturation} {
			m := a.buildStepModel(step)
			want := map[[2]int]int{} // (task, class) → replica columns
			for ci, vi := range m.cfgVar {
				if vi >= 0 {
					want[[2]int{int(a.cfgs[ci].task), a.cfgs[ci].class}]++
				}
			}
			seen := map[int]bool{}
			for _, g := range m.groups {
				ci0 := slices.Index(m.cfgVar, g[0].Var)
				key := [2]int{int(a.cfgs[ci0].task), a.cfgs[ci0].class}
				if len(g) != want[key] {
					t.Errorf("%s step %d: group of %v has %d columns, want %d", name, step, key, len(g), want[key])
				}
				delete(want, key)
				for _, tm := range g {
					ci := slices.Index(m.cfgVar, tm.Var)
					if ci < 0 || !m.integer[tm.Var] || tm.Coef != 1 || seen[tm.Var] ||
						int(a.cfgs[ci].task) != key[0] || a.cfgs[ci].class != key[1] {
						t.Fatalf("%s step %d: term %+v does not belong to the group of %v", name, step, tm, key)
					}
					seen[tm.Var] = true
				}
			}
			grouped := step == stepAccuracy || step == stepSaturation
			for key, n := range want {
				if grouped && n > 1 {
					t.Errorf("%s step %d: no group for %v's %d columns", name, step, key, n)
				}
			}
			if !grouped && len(m.groups) > 0 {
				t.Errorf("%s step %d: %d groups on a hardware step", name, step, len(m.groups))
			}
			if grouped && len(m.groups) == 0 {
				t.Errorf("%s step %d: no groups", name, step)
			}
		}
	}
}

// Steady state: once a step has been solved, no demand, grant or greedy pass
// builds a model again.
func TestStepModelsBuiltOnce(t *testing.T) {
	for _, name := range []string{"traffic-analysis", "fleet-chain"} {
		a := pinAllocator(t, name)
		full := append([]int(nil), a.counts...)
		// First use of every step: hardware scaling, accuracy scaling,
		// saturation (a pool one server above the keep-warm minimum).
		tight := make([]int, len(full))
		tight[len(tight)-1] = len(a.byTask) + 1
		for _, warm := range []struct {
			demand float64
			caps   []int
		}{{100, full}, {100000, full}, {100000, tight}} {
			if _, err := a.AllocateCapped(warm.demand, warm.caps); err != nil {
				t.Fatal(err)
			}
		}
		builds := a.Perf().ModelBuilds
		if builds != 3 {
			t.Fatalf("%s: %d models built for three steps", name, builds)
		}
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 200; i++ {
			demand := 20 + 600*rng.Float64()
			caps := make([]int, len(full))
			for cl, n := range full {
				caps[cl] = n/2 + rng.Intn(n/2+1)
			}
			var err error
			switch i % 3 {
			case 0:
				_, err = a.Allocate(demand)
			case 1:
				_, err = a.AllocateCapped(demand, caps)
			default:
				a.GreedyAllocate(demand, caps)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := a.Perf().ModelBuilds; got != builds {
			t.Errorf("%s: 200 solves at fresh demands and grants built %d more models", name, got-builds)
		}
	}
}

// A greedy-served call allocates the plan and the greedy pass's scratch (27
// objects on the fleet cell when this was written), nothing that scales with
// a model build — 737 with the per-demand builder this model replaced.
func TestGreedyAllocateAllocs(t *testing.T) {
	a := pinAllocator(t, "fleet-chain")
	caps := []int{40, 80, 80}
	if _, ok := a.GreedyAllocate(700, caps); !ok {
		t.Fatal("greedy pass found no plan on the fleet cell")
	}
	demand := 700.0
	allocs := testing.AllocsPerRun(50, func() {
		demand *= 1.003
		if plan, ok := a.GreedyAllocate(demand, caps); !ok || !plan.SolveStats.Greedy {
			t.Fatal("greedy pass stopped serving")
		}
	})
	const ceiling = 40
	if allocs > ceiling {
		t.Fatalf("GreedyAllocate: %.0f allocations per call, ceiling %d", allocs, ceiling)
	}
	t.Logf("GreedyAllocate: %.0f allocations per call", allocs)
}
