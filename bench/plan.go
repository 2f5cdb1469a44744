package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/core"
	"loki/internal/engine"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// The plan-* workloads drive the control path alone: a core.MultiController
// over real allocators, fed a seeded demand walk one forced round at a time,
// publishing every plan into an idle Simulated MultiEngine. The wiring copies
// tenancy.go (allocator options, route headroom, Publish → ApplyPlan); no
// request is ever served.
const (
	planSLOSec        = 0.250
	planNetLatencySec = 0.002
	planHeadroom      = 0.30
	// observationsPerRound converges the store's EWMA (alpha 0.35) onto the
	// round's demand level, as the fleet experiment does.
	observationsPerRound = 8
	// planProfileSeed fixes the Model Profiler's noise, and with it the MILP
	// instances, across seeds; see planSpec.walk.
	planProfileSeed = 11
)

// planSpec is one control-path workload.
type planSpec struct {
	name            string
	servers         int
	classes         []profiles.Class
	graphs          []*pipeline.Graph // one per tenant
	solveLimit      time.Duration
	greedyBudget    int
	cacheOff        bool
	warmupRounds    int
	roundsPerSecond float64
	// walk is one period of demand per tenant, walk[i][k], as long as a pass
	// of the benchmark's declared ten seconds has rounds. It is the same for
	// every seed, because MILP time is a chaotic function of the exact
	// demand: passes over different levels do not repeat within a fifth. What
	// the seed decides is how the walk is laid onto the pass (see
	// planStack.level), so that every seed plans the same multiset of demand
	// levels.
	walk [][]float64
	// shuffle says how: true deals the walks out to the tenants in a seeded
	// order, which changes nothing but the labels when the tenants are
	// interchangeable; false starts the period at a seeded round.
	shuffle bool
	// uncontended reports whether the walk keeps the pool uncontended on
	// this round, where every plan must serve all of its demand.
	uncontended func(levels []float64) bool
}

// milpMeans are the tenants' mean demands on plan-milp: 0.35 of what each
// pipeline's allocator can serve alone on the 20-server pool (traffic tree
// 1513 qps, social media 872 qps at the commit that added the benchmark), so
// the two together average 0.7 of the pool and their peaks contend. Fixed
// numbers, not a MaxCapacity call, so the input does not move with the
// planner under test.
var milpMeans = []float64{530, 305}

func milpSpec() planSpec {
	return planSpec{
		name:            "plan-milp",
		servers:         20,
		classes:         profiles.DefaultClasses(20),
		graphs:          []*pipeline.Graph{profiles.TrafficTree(), profiles.SocialMedia()},
		solveLimit:      500 * time.Millisecond,
		roundsPerSecond: 4.5,
		cacheOff:        true,
		walk:            milpWalk(45),
		uncontended: func(levels []float64) bool {
			for i, d := range levels {
				if d > 0.9*milpMeans[i] {
					return false
				}
			}
			return true
		},
	}
}

// milpWalk is plan-milp's period: one cycle of a ±50 % sinusoid, the tenants
// a quarter cycle apart, with ±5 % noise from a fixed stream.
func milpWalk(period int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	walk := make([][]float64, len(milpMeans))
	for i := range walk {
		walk[i] = make([]float64, period)
	}
	for k := 0; k < period; k++ {
		for i, mean := range milpMeans {
			phase := 2*math.Pi*float64(k)/float64(period) + float64(i)*math.Pi/2
			walk[i][k] = mean * (1 + 0.5*math.Sin(phase)) * (1 + 0.1*rng.Float64() - 0.05)
		}
	}
	return walk
}

// fleetWalk is plan-fleet's period: every tenant drifts ±4 % a round from a
// fixed stream for half the period, clamped to [0.5, 1.5] × base, and then
// walks the same path back, so the period closes without a jump.
func fleetWalk(period, tenants int, base float64) [][]float64 {
	half := (period + 1) / 2
	rng := rand.New(rand.NewSource(1))
	walk := make([][]float64, tenants)
	for i := range walk {
		walk[i] = make([]float64, 2*half)
		walk[i][0] = base
	}
	for k := 1; k < half; k++ {
		for i := range walk {
			d := walk[i][k-1] * (1 + 0.08*rng.Float64() - 0.04)
			walk[i][k] = math.Min(math.Max(d, 0.5*base), 1.5*base)
		}
	}
	for i := range walk {
		for k := half; k < 2*half; k++ {
			walk[i][k] = walk[i][2*half-1-k]
		}
	}
	return walk
}

func fleetSpec() planSpec {
	const servers, tenants = 1000, 24
	graphs := make([]*pipeline.Graph, tenants)
	g := profiles.TrafficChain()
	for i := range graphs {
		graphs[i] = g
	}
	// ~60 % of an even pool split through the chain's ≈28 qps per speed-1.0
	// server: the BENCH_fleet.json acceptance cell.
	base := 16.8 * servers / tenants
	return planSpec{
		name:    "plan-fleet",
		servers: servers,
		classes: []profiles.Class{
			{Name: "fast", Count: servers / 5, Speed: 2.0},
			{Name: "mid", Count: 2 * servers / 5, Speed: 1.0},
			{Name: "slow", Count: servers - servers/5 - 2*servers/5, Speed: 0.5},
		},
		graphs:          graphs,
		solveLimit:      2 * time.Second,
		greedyBudget:    tenants,
		warmupRounds:    2,
		shuffle:         true,
		roundsPerSecond: 40,
		walk:            fleetWalk(400, tenants, base),
		uncontended:     func([]float64) bool { return true },
	}
}

func runPlanMILP(cfg runConfig) (*outcome, error)  { return runPlan(milpSpec(), cfg) }
func runPlanFleet(cfg runConfig) (*outcome, error) { return runPlan(fleetSpec(), cfg) }

// planStack is one stood-up control plane.
type planStack struct {
	ctrl     *core.MultiController
	eng      engine.MultiEngine
	metas    []*core.MetadataStore
	allocs   []*core.Allocator
	planners []*tracedPlanner // nil on the untraced pass
	// walk is one period of demand; tenant i follows walk[deal[i]], and
	// round 0 falls on index offset. The seed sets one of the two.
	walk   [][]float64
	deal   []int
	offset int
	// round is the span of the round in flight, the parent of every planner
	// and publish span recorded while Step runs.
	round atomic.Int64
	rec   *recorder
}

func buildPlan(spec planSpec, cfg runConfig, rec *recorder) (*planStack, error) {
	period := int64(len(spec.walk[0]))
	st := &planStack{rec: rec, walk: spec.walk}
	if spec.shuffle {
		st.deal = rand.New(rand.NewSource(cfg.seed)).Perm(len(spec.graphs))
	} else {
		for i := range spec.graphs {
			st.deal = append(st.deal, i)
		}
		// Consecutive seeds start 37 rounds apart, not next to each other.
		st.offset = int(((cfg.seed*37)%period + period) % period)
	}
	mc := engine.MultiConfig{
		Servers: spec.servers, Classes: spec.classes,
		NetLatencySec: planNetLatencySec, Seed: planProfileSeed,
	}
	profiled := map[*pipeline.Graph][][][]profiles.Profile{}
	tenants := make([]*core.Tenant, len(spec.graphs))
	for i, g := range spec.graphs {
		prof, ok := profiled[g]
		if !ok {
			prof = (&profiles.Profiler{Seed: planProfileSeed}).ProfileGraphClasses(g, profiles.Batches, spec.classes)
			profiled[g] = prof
		}
		meta := core.NewMetadataStoreHetero(g, spec.classes, prof, planSLOSec, profiles.Batches)
		alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
			Servers: spec.servers, NetLatencySec: planNetLatencySec, KeepWarm: true,
			Headroom: planHeadroom, SolveTimeLimit: spec.solveLimit,
		})
		if err != nil {
			return nil, err
		}
		st.metas = append(st.metas, meta)
		st.allocs = append(st.allocs, alloc)
		var planner core.Planner = alloc
		if rec != nil {
			tp := &tracedPlanner{inner: alloc, st: st, tenant: int64(i)}
			st.planners = append(st.planners, tp)
			planner = tp
		}
		i := i
		tenants[i] = &core.Tenant{
			Name: fmt.Sprintf("t%02d", i), Meta: meta, Alloc: planner,
			RouteHeadroom: planHeadroom, CacheDisabled: spec.cacheOff,
			Publish: func(plan *core.Plan, routes *core.Routes) {
				id := rec.begin("engine.apply_plan", st.round.Load(), int64(i))
				st.eng.ApplyPlan(i, plan, routes)
				rec.end(id)
			},
		}
		mc.Tenants = append(mc.Tenants, engine.TenantConfig{
			Meta: meta, Collector: metrics.NewCollector(30, spec.servers), SLOSec: planSLOSec,
		})
	}
	eng, err := engine.NewMulti(engine.KindSimulated, mc)
	if err != nil {
		return nil, err
	}
	st.eng = eng
	ctrl, err := core.NewMultiController(spec.servers, tenants)
	if err != nil {
		return nil, err
	}
	ctrl.GreedyReplaceBudget = spec.greedyBudget
	st.ctrl = ctrl
	// Warm-up rounds absorb the cold solves and settle the bucket state.
	for r := -spec.warmupRounds; r < 0; r++ {
		st.observe(r, nil)
		if err := ctrl.Step(true); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// level is tenant i's demand on round r; warm-up rounds are negative.
func (st *planStack) level(r, i int) float64 {
	w := st.walk[st.deal[i]]
	return w[((r+st.offset)%len(w)+len(w))%len(w)]
}

// perf sums the tenants' solver effort counters.
func (st *planStack) perf() core.SolverPerf {
	var sum core.SolverPerf
	for _, a := range st.allocs {
		p := a.Perf()
		sum.MILPSolves += p.MILPSolves
		sum.ModelBuilds += p.ModelBuilds
		sum.ModelReuses += p.ModelReuses
	}
	return sum
}

// observe feeds round r's demand levels into every tenant's store.
func (st *planStack) observe(r int, levels []float64) {
	for i, meta := range st.metas {
		d := st.level(r, i)
		if levels != nil {
			levels[i] = d
		}
		for k := 0; k < observationsPerRound; k++ {
			meta.ObserveDemand(d)
		}
	}
}

// tracedPlanner decorates a tenant's allocator with spans and counters. It
// implements the planner interfaces the arbiter type-asserts for, so the
// arbiter takes the same paths as with the bare allocator.
type tracedPlanner struct {
	inner  *core.Allocator
	st     *planStack
	tenant int64

	mu                       sync.Mutex
	allocates                int
	nodes, iters, vars, rows int
	proven                   int
	calledThisRound          bool
}

var (
	_ core.CappedPlanner = (*tracedPlanner)(nil)
	_ core.GreedyPlanner = (*tracedPlanner)(nil)
)

func (p *tracedPlanner) solved(plan *core.Plan, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calledThisRound = true
	if err != nil || plan == nil {
		return
	}
	p.allocates++
	s := plan.SolveStats
	p.nodes += s.Nodes
	p.iters += s.LPIters
	p.vars += s.Vars
	p.rows += s.Constraints
	if s.Proven {
		p.proven++
	}
}

func (p *tracedPlanner) Allocate(demand float64) (*core.Plan, error) {
	id := p.st.rec.begin("core.allocate", p.st.round.Load(), p.tenant)
	plan, err := p.inner.Allocate(demand)
	p.st.rec.end(id)
	p.solved(plan, err)
	return plan, err
}

func (p *tracedPlanner) AllocateCapped(demand float64, caps []int) (*core.Plan, error) {
	id := p.st.rec.begin("core.allocate", p.st.round.Load(), p.tenant)
	plan, err := p.inner.AllocateCapped(demand, caps)
	p.st.rec.end(id)
	p.solved(plan, err)
	return plan, err
}

func (p *tracedPlanner) GreedyAllocate(demand float64, caps []int) (*core.Plan, bool) {
	id := p.st.rec.begin("core.greedy", p.st.round.Load(), p.tenant)
	plan, ok := p.inner.GreedyAllocate(demand, caps)
	p.st.rec.end(id)
	p.mu.Lock()
	p.calledThisRound = true
	p.mu.Unlock()
	return plan, ok
}

func runPlan(spec planSpec, cfg runConfig) (*outcome, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	st, setup, err := repeatSetup(cfg.oneSetup,
		func() (*planStack, error) { return buildPlan(spec, cfg, rec) },
		func(*planStack) {})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.e2e["setup_s"] = setup

	rounds := max(int(math.Round(spec.roundsPerSecond*cfg.seconds)), 10)
	// A planner slowed several-fold still ends inside the driver's limit:
	// past twice the budget the walk stops early and reports what it ran.
	deadline := time.Now().Add(time.Duration(2 * cfg.seconds * float64(time.Second)))
	nt := len(spec.graphs)
	levels := make([]float64, nt)
	prev := make([]map[[4]int]int, nt)
	published := make([]publishedPlan, 0, 256)
	var roundMs, observeUs []float64
	var demandSum, servedSum, accSum, serversSum, churn float64
	sum := fnv.New64a()
	allocs0, trunc0, greedy0 := st.ctrl.Allocates(), st.ctrl.TruncatedSolves(), st.ctrl.GreedyReplaced()
	perf0 := st.perf()
	cleanSkips := 0
	for _, p := range st.planners {
		p.calledThisRound = false // set by the warm-up rounds
	}
	probe := startRuntimeProbe(cfg.trace)

	for r := 0; r < rounds && time.Now().Before(deadline); r++ {
		t0 := time.Now()
		rid := rec.begin("core.round", 0, int64(r))
		st.round.Store(rid)
		oid := rec.begin("core.observe_demand", rid, int64(r))
		st.observe(r, levels)
		rec.end(oid)
		t1 := time.Now()
		err := st.ctrl.Step(true)
		rec.end(rid)
		t2 := time.Now()
		roundMs = append(roundMs, ms(t2.Sub(t0)))
		observeUs = append(observeUs, us(t1.Sub(t0)))
		o.attempted++
		if err != nil {
			o.violate("round %d: Step: %v", r, err)
			continue
		}

		// Output checks on what the round published.
		grants := st.ctrl.Grants()
		granted, used := 0, 0
		free := spec.uncontended(levels)
		for i := 0; i < nt; i++ {
			plan, routes := st.ctrl.PlanOf(i), st.ctrl.RoutesOf(i)
			if plan == nil || routes == nil {
				o.violate("round %d tenant %d: nothing published", r, i)
				continue
			}
			granted += grants[i]
			used += plan.ServersUsed
			if plan.ServersUsed > grants[i] {
				o.violate("round %d tenant %d: plan uses %d servers of a grant of %d", r, i, plan.ServersUsed, grants[i])
			}
			if plan.ServedFraction <= 0 || plan.ServedFraction > 1 || (plan.Mode != core.Saturated && plan.ServedFraction != 1) {
				o.violate("round %d tenant %d: mode %s with served fraction %.4f", r, i, plan.Mode, plan.ServedFraction)
			}
			if free && plan.ServedFraction != 1 {
				o.violate("round %d tenant %d: served fraction %.4f at demand %.1f with the pool uncontended", r, i, plan.ServedFraction, levels[i])
			}
			if msg := routesNormalised(routes); msg != "" {
				o.violate("round %d tenant %d: %s", r, i, msg)
			}
			demandSum += levels[i]
			servedSum += levels[i] * plan.ServedFraction
			accSum += plan.ExpectedAccuracy
			churn += foldPlan(sum, i, plan, &prev[i])
			if len(published) < cap(published) {
				published = append(published, publishedPlan{i, plan})
			}
		}
		if granted > spec.servers {
			o.violate("round %d: grants sum to %d on a pool of %d", r, granted, spec.servers)
		}
		serversSum += float64(used)
		o.checksums = append(o.checksums, sum.Sum64())
		for _, p := range st.planners {
			p.mu.Lock()
			if !p.calledThisRound {
				cleanSkips++
			}
			p.calledThisRound = false
			p.mu.Unlock()
		}
	}
	if len(roundMs) == 0 {
		return nil, fmt.Errorf("%s: no round ran", spec.name)
	}

	n := float64(len(roundMs))
	o.e2e["goodput_per_s"] = 1e3 / mean(roundMs)
	// The tail is the mean of the slowest tenth of the rounds, not one order
	// statistic: the slow rounds are the ones that reached the MILP, a tenth
	// of them on plan-fleet, and a percentile inside that cluster moves by a
	// third from seed to seed where the cluster's mean moves by a twentieth.
	sort.Float64s(roundMs)
	o.e2e["latency_tail_ms"] = mean(roundMs[len(roundMs)-max(len(roundMs)/10, 1):])
	// The typical round is the mean of the middle half, for the same reason:
	// plan-milp has 45 rounds spread evenly from 25 to 650 ms, and its median
	// alone moves by a quarter when the host slows by a tenth and a few
	// solves cross a cutoff.
	o.e2e["latency_p50_ms"] = mean(roundMs[len(roundMs)/4 : len(roundMs)-len(roundMs)/4])
	o.e2e["admit_latency_p10_us"] = quantile(observeUs, 0.10)
	o.e2e["slo_attainment"] = ratio(servedSum, demandSum)
	o.e2e["accuracy_mean"] = accSum / (n * float64(nt))
	o.e2e["servers_mean"] = serversSum / n
	truncated := st.ctrl.TruncatedSolves() - trunc0
	o.truncated = truncated > 0
	if !cfg.trace {
		return o, nil
	}

	l := o.layer
	probe.finish(n, l)
	allocates := float64(st.ctrl.Allocates() - allocs0)
	greedy := float64(st.ctrl.GreedyReplaced() - greedy0)
	l["core.rounds"] = n
	l["core.allocates"] = allocates
	l["core.greedy_plans"] = greedy
	l["core.clean_skips"] = float64(cleanSkips)
	l["core.greedy_hit_share"] = ratio(greedy, greedy+allocates)
	l["core.truncated_solves"] = float64(truncated)
	l["core.truncated_share"] = ratio(float64(truncated), allocates)
	perf := st.perf()
	l["core.model_builds"] = float64(perf.ModelBuilds - perf0.ModelBuilds)
	l["core.model_reuses"] = float64(perf.ModelReuses - perf0.ModelReuses)
	l["milp.solves"] = float64(perf.MILPSolves - perf0.MILPSolves)
	l["core.round_p50_ms"] = median(roundMs)
	l["core.observe_demand_ns"] = median(observeUs) * 1e3 / float64(nt*observationsPerRound)
	l["core.plan_churn_replicas"] = churn / n
	l["core.allocs_per_round"] = l["runtime.allocs_per_op"]
	l["core.bytes_per_round"] = l["runtime.bytes_per_op"]

	// Solver effort comes from the SolveStats of the plans the decorators
	// saw returned; solver time inside Allocate is not separable from here.
	var solves, nodes, iters, vars, rows, proven float64
	for _, p := range st.planners {
		solves += float64(p.allocates)
		nodes += float64(p.nodes)
		iters += float64(p.iters)
		vars += float64(p.vars)
		rows += float64(p.rows)
		proven += float64(p.proven)
	}
	l["milp.nodes_per_solve"] = ratio(nodes, solves)
	l["milp.proven_share"] = ratio(proven, solves)
	l["lp.iters_per_solve"] = ratio(iters, solves)
	l["lp.vars_mean"] = ratio(vars, solves)
	l["lp.rows_mean"] = ratio(rows, solves)

	dur := rec.durations()
	alloc := dur["core.allocate"]
	for i := range alloc {
		alloc[i] /= 1e3
	}
	l["core.allocate_p50_ms"] = median(alloc)
	l["core.allocate_p99_ms"] = quantile(alloc, 0.99)
	l["core.greedy_p50_us"] = median(dur["core.greedy"])
	l["engine.apply_plan_p50_us"] = median(dur["engine.apply_plan"])
	l["engine.apply_plan_p99_us"] = quantile(dur["engine.apply_plan"], 0.99)
	l["core.arbiter_self_p50_us"] = median(rec.selfTimes("core.round"))
	l["core.routes_p50_us"] = median(replayRoutes(st, published))
	replayLayers(cfg.seed, l)
	return o, finishTracing(rec, cfg, spec.name, cpuTime()-probe.cpu0, l)
}

// routesNormalised checks the routing tables the Load Balancer published:
// every entry names a worker of the task it routes to with a probability in
// [0, 1], and a table's probabilities sum to at most one (the shortfall is
// the share MostAccurateFirst leaves unrouted when capacity runs out). It
// returns what is wrong, or "".
func routesNormalised(r *core.Routes) string {
	bad := func(task pipeline.TaskID, entries []core.RouteEntry) bool {
		sum := 0.0
		for _, e := range entries {
			if e.Prob < 0 || int(e.Worker) < 0 || int(e.Worker) >= len(r.Specs) || r.Specs[e.Worker].Task != task {
				return true
			}
			sum += e.Prob
		}
		return sum > 1+1e-9
	}
	if len(r.Frontend) == 0 {
		return "no frontend route"
	}
	if bad(0, r.Frontend) {
		return "frontend table is not a sub-distribution over root workers"
	}
	for id, t := range r.Tables {
		for child, entries := range t.PerChild {
			if bad(child, entries) {
				return fmt.Sprintf("worker %d → task %d table is not a sub-distribution over that task's workers", id, child)
			}
		}
	}
	return ""
}

// foldPlan adds a tenant's published plan to the pass checksum and returns
// Σ|Δreplicas| against the tenant's previous plan.
func foldPlan(h io.Writer, tenant int, plan *core.Plan, prev *map[[4]int]int) float64 {
	cur := make(map[[4]int]int, len(plan.Assignments))
	fmt.Fprintf(h, "t%d s%d;", tenant, plan.ServersUsed)
	for _, a := range plan.Assignments {
		cur[[4]int{int(a.Task), a.Variant, a.MaxBatch, a.Class}] += a.Replicas
		fmt.Fprintf(h, "%d/%d/%d/%d=%d;", a.Task, a.Variant, a.MaxBatch, a.Class, a.Replicas)
	}
	churn := 0
	if *prev != nil {
		for k, n := range cur {
			churn += abs(n - (*prev)[k])
		}
		for k, n := range *prev {
			if _, ok := cur[k]; !ok {
				churn += n
			}
		}
	}
	*prev = cur
	return float64(churn)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// publishedPlan is a plan a round published, with the tenant it belongs to.
type publishedPlan struct {
	tenant int
	plan   *core.Plan
}

// replayRoutes times the Load Balancer's route build (ExpandPlan +
// MostAccurateFirst) on plans the pass published, in microseconds.
func replayRoutes(st *planStack, plans []publishedPlan) []float64 {
	out := make([]float64, 0, len(plans))
	for _, p := range plans {
		meta := st.metas[p.tenant]
		t0 := time.Now()
		specs := core.ExpandPlan(p.plan)
		core.MostAccurateFirst(meta.Graph(), specs, p.plan.Demand*(1+planHeadroom), meta.MultFactor)
		out = append(out, us(time.Since(t0)))
	}
	return out
}
