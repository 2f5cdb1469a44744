package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"loki/internal/lp"
	"loki/internal/milp"
	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// AllocatorOptions tunes the Resource Manager's optimization (§4).
type AllocatorOptions struct {
	// Servers is the cluster size S. On a heterogeneous fleet (the Metadata
	// Store registers several hardware classes, or one class with a positive
	// Count) the per-class counts are authoritative and Servers must either
	// be zero or equal their sum.
	Servers int
	// NetLatencySec is the homogeneous per-hop communication latency
	// subtracted from the SLO during allocation (§4.2).
	NetLatencySec float64
	// MinPathAccuracy, if positive, prunes configuration paths whose
	// end-to-end accuracy falls below it (§1 notes deployments usually
	// impose a minimum acceptable accuracy).
	MinPathAccuracy float64
	// Headroom inflates the demand the allocator provisions for, absorbing
	// sub-interval arrival bursts. 0.05 means 5%.
	Headroom float64
	// KeepWarm keeps at least one replica per task even at zero demand so
	// the pipeline never goes cold.
	KeepWarm bool
	// SolveTimeLimit bounds each MILP solve; zero means 2s. The solver is
	// anytime, so hitting the limit degrades optimality, not correctness.
	SolveTimeLimit time.Duration
	// DisableReuse turns off the planner's cross-solve memory: the
	// (demand, step) LP model memo and the warm-start seeds carried from
	// one adaptation round to the next. Solves whose searches terminate
	// deterministically (optimality proof or gap test) return identical
	// plans either way — reuse only changes how fast they get there and
	// which incumbent a time-limited search has in hand when truncated.
	// The escape hatch exists for A/B measurement and for the public
	// WithPlannerCache(false) option.
	DisableReuse bool
	// DisableStall turns off the wall-clock stall cutoff, letting every
	// search run its full time budget. Solves whose natural duration falls
	// between the stall arming delay (a quarter of SolveTimeLimit) and the
	// limit itself are wall-clock sensitive with the cutoff on; offline
	// experiment drivers that pick generous budgets precisely to get
	// reproducible, exhaustive solves set this. Implied by DisableReuse.
	DisableStall bool
}

// Allocator is the Resource Manager's optimization engine. It owns the
// config-path formulation of the paper's MILPs: the augmented graph over
// (variant, batch) configurations, whose paths have constant latency, so the
// latency SLO (Constraints 4-7) is enforced exactly by pruning infeasible
// paths up front rather than with big-M indicator rows.
type Allocator struct {
	Meta *MetadataStore
	Opts AllocatorOptions

	// classes are the cluster's hardware classes and counts their effective
	// per-class server counts (the homogeneous path resolves the single
	// default class to Opts.Servers). Capped views override counts only.
	classes []profiles.Class
	counts  []int
	// priced is true when any class carries a positive CostPerHour, turning
	// the cost-aware objective terms on. A zero-cost fleet keeps the
	// pre-class objectives bit for bit.
	priced bool

	cfgs        []config  // all latency-feasible configurations
	byTask      [][]int   // config indices per task
	paths       []cfgPath // all feasible root-to-sink config paths
	sinkOf      []int     // canonical sink index per task (index into sinks)
	sinks       []pipeline.TaskID
	pathsBySink [][]int // path indices grouped by terminal sink

	// state is the reusable solving machinery (model memo, warm starts,
	// tableau workspace), shared with every Capped view. Its mutex makes
	// the allocator safe for concurrent use.
	state *solverState
}

// config is one deployable unit: a model variant at a fixed max batch size
// hosted on one hardware class (latency and throughput are class-specific).
type config struct {
	task    pipeline.TaskID
	variant int
	batch   int
	class   int     // hardware class index
	lat     float64 // profiled batch latency on the class (seconds)
	qps     float64 // profiled per-replica throughput on the class
	acc     float64 // normalized accuracy
}

// cfgPath is a root-to-sink path through the configuration graph.
type cfgPath struct {
	cfgs     []int     // config index per hop
	mults    []float64 // m(p, hop): requests reaching hop per root query
	totalLat float64
	acc      float64 // end-to-end Â(p)
	sink     int     // index into a.sinks
}

// NewAllocator builds the configuration graph for the store's pipeline.
func NewAllocator(meta *MetadataStore, opts AllocatorOptions) (*Allocator, error) {
	a := &Allocator{Meta: meta, Opts: opts, state: newSolverState()}
	a.classes = meta.Classes()
	a.counts = make([]int, len(a.classes))
	total := 0
	for i, cl := range a.classes {
		a.counts[i] = cl.Count
		total += cl.Count
		if cl.CostPerHour > 0 {
			a.priced = true
		}
	}
	if len(a.classes) == 1 && a.counts[0] == 0 {
		// Homogeneous compatibility path: the single default class takes its
		// size from the classic Servers option.
		a.counts[0] = opts.Servers
		total = opts.Servers
	}
	if a.Opts.Servers == 0 {
		a.Opts.Servers = total
	} else if a.Opts.Servers != total {
		return nil, fmt.Errorf("core: Servers option (%d) disagrees with the hardware classes' total count (%d)", a.Opts.Servers, total)
	}
	if a.Opts.Servers <= 0 {
		return nil, fmt.Errorf("core: allocator needs a positive cluster size, got %d", a.Opts.Servers)
	}
	if err := meta.Graph().Validate(); err != nil {
		return nil, err
	}
	a.build()
	if len(a.paths) == 0 {
		return nil, fmt.Errorf("core: no configuration path fits the %.0fms SLO — even batch-1 latencies of the fastest variants exceed the compute budget", meta.SLO()*1e3)
	}
	return a, nil
}

// build enumerates configurations and feasible paths.
func (a *Allocator) build() {
	g := a.Meta.Graph()
	classProf := a.Meta.ClassProfiles()

	a.byTask = make([][]int, len(g.Tasks))
	for i := range g.Tasks {
		for k := range g.Tasks[i].Variants {
			for cl := range a.classes {
				p := &classProf[cl][i][k]
				// Dominated-configuration pruning, per (variant, class): a
				// larger batch size that improves throughput by under 5%
				// mostly adds latency — the variant has saturated — and is
				// dropped. This shrinks the path set multiplicatively at a
				// worst-case cost of a few percent of capacity, well below
				// the provisioning headroom. Classes are never pruned
				// against each other: a slower class's configurations stay
				// available, because its servers are a separate capacity
				// (and cost) pool.
				bestQPS := 0.0
				for j, b := range p.Batches {
					if j > 0 && p.QPS[j] < bestQPS*1.05 {
						continue
					}
					if p.QPS[j] > bestQPS {
						bestQPS = p.QPS[j]
					}
					a.byTask[i] = append(a.byTask[i], len(a.cfgs))
					a.cfgs = append(a.cfgs, config{
						task:    pipeline.TaskID(i),
						variant: k,
						batch:   b,
						class:   cl,
						lat:     p.LatencySec[j],
						qps:     p.QPS[j],
						acc:     g.Tasks[i].Variants[k].Accuracy,
					})
				}
			}
		}
	}

	a.sinks = g.Sinks()
	sinkIdx := map[pipeline.TaskID]int{}
	for s, id := range a.sinks {
		sinkIdx[id] = s
	}

	// Canonical sink per task: the first sink reachable from it. The
	// consistency constraints make every sink's flow decomposition agree,
	// so capacity accounting may use any one of them.
	a.sinkOf = make([]int, len(g.Tasks))
	var firstSink func(id pipeline.TaskID) int
	firstSink = func(id pipeline.TaskID) int {
		if g.Tasks[id].IsSink() {
			return sinkIdx[id]
		}
		best := len(a.sinks)
		for _, c := range g.Tasks[id].Children {
			if s := firstSink(c.Task); s < best {
				best = s
			}
		}
		return best
	}
	for i := range g.Tasks {
		a.sinkOf[i] = firstSink(pipeline.TaskID(i))
	}

	// Enumerate feasible config paths for every task path. The compute
	// budget per path is SLO/2 minus one network hop per server traversed
	// (§4.1 halves the SLO to cover queueing; §4.2 subtracts
	// communication).
	budgetFor := func(hops int) float64 {
		return a.Meta.SLO()/2 - float64(hops)*a.Opts.NetLatencySec
	}
	// Sink count per task (over the whole graph): a task reachable by more
	// than one sink is "shared" — its configurations participate in the
	// cross-sink consistency constraints and must therefore never be
	// Pareto-pruned within a single sink's path family, or the families
	// would keep disjoint config sets and consistency would force all flow
	// to zero.
	sinkCount := make([]int, len(g.Tasks))
	for _, tp := range g.TaskPaths() {
		for _, id := range tp.Tasks {
			sinkCount[id]++
		}
	}

	a.pathsBySink = make([][]int, len(a.sinks))
	for _, tp := range g.TaskPaths() {
		budget := budgetFor(len(tp.Tasks))
		sink := sinkIdx[tp.Tasks[len(tp.Tasks)-1]]

		// Configs per hop grouped by variant.
		hops := len(tp.Tasks)
		byVariant := make([]map[int][]int, hops)
		for h, task := range tp.Tasks {
			byVariant[h] = map[int][]int{}
			for _, ci := range a.byTask[task] {
				v := a.cfgs[ci].variant
				byVariant[h][v] = append(byVariant[h][v], ci)
			}
		}

		// For each variant sequence, enumerate latency-feasible batch
		// combos and keep only Pareto-maximal ones: accuracy is identical
		// across combos of a sequence and, once feasible, only per-hop
		// throughput matters to the LP, so a combo componentwise dominated
		// in throughput can never improve a plan. This cuts the path set
		// from the product of batch counts to roughly its staircase
		// frontier.
		variantChoice := make([]int, hops)
		cfgChoice := make([]int, hops)
		var combos [][]int
		var enumBatches func(hop int, lat float64)
		enumBatches = func(hop int, lat float64) {
			if hop == hops {
				combos = append(combos, append([]int(nil), cfgChoice...))
				return
			}
			for _, ci := range byVariant[hop][variantChoice[hop]] {
				if nl := lat + a.cfgs[ci].lat; nl <= budget {
					cfgChoice[hop] = ci
					enumBatches(hop+1, nl)
				}
			}
		}
		shared := make([]bool, hops)
		for h, id := range tp.Tasks {
			shared[h] = sinkCount[id] > 1
		}
		emit := func() {
			combos = combos[:0]
			enumBatches(0, 0)
			for i, combo := range combos {
				dominated := false
				for j, other := range combos {
					if i == j {
						continue
					}
					// Only combos identical at every shared hop — and on the
					// same hardware class at every hop — compete; dominance
					// is judged on the exclusive hops' throughput alone.
					// Cross-class combos are incomparable: each class is its
					// own capacity pool with its own cost, so a
					// lower-throughput combo on a cheaper or emptier class
					// can still improve a plan.
					geq, strict, comparable := true, false, true
					for h := range combo {
						if shared[h] {
							if other[h] != combo[h] {
								comparable = false
								break
							}
							continue
						}
						if a.cfgs[other[h]].class != a.cfgs[combo[h]].class {
							comparable = false
							break
						}
						qa, qb := a.cfgs[other[h]].qps, a.cfgs[combo[h]].qps
						if qa < qb {
							geq = false
							break
						}
						if qa > qb {
							strict = true
						}
					}
					if comparable && geq && (strict || j < i) { // ties: keep the first
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				pth := cfgPath{cfgs: append([]int(nil), combo...), sink: sink}
				pth.acc = 1
				pth.mults = make([]float64, hops)
				m := 1.0
				for h, ci := range combo {
					c := &a.cfgs[ci]
					pth.totalLat += c.lat
					m *= tp.BranchRatios[h]
					pth.mults[h] = m
					m *= a.Meta.MultFactor(c.task, c.variant)
					pth.acc *= c.acc
				}
				if a.Opts.MinPathAccuracy > 0 && pth.acc < a.Opts.MinPathAccuracy {
					continue
				}
				a.pathsBySink[sink] = append(a.pathsBySink[sink], len(a.paths))
				a.paths = append(a.paths, pth)
			}
		}
		var enumVariants func(hop int)
		enumVariants = func(hop int) {
			if hop == hops {
				emit()
				return
			}
			for v := range g.Tasks[tp.Tasks[hop]].Variants {
				variantChoice[hop] = v
				enumVariants(hop + 1)
			}
		}
		enumVariants(0)
	}
}

// Allocate runs the Resource Manager's two-step optimization for the given
// demand estimate: hardware scaling first (Eq. 11), accuracy scaling if that
// is infeasible (Eq. 12), and a saturation fallback that serves the largest
// possible fraction of demand when even full accuracy scaling cannot keep
// up.
func (a *Allocator) Allocate(demand float64) (*Plan, error) {
	d := demand * (1 + a.Opts.Headroom)
	if d < 0 {
		d = 0
	}

	// Step 1: hardware scaling with the most accurate variants only.
	if plan, ok, err := a.solveStep(d, stepHardware); err != nil {
		return nil, err
	} else if ok {
		return plan, nil
	}
	// Step 2: accuracy scaling across the whole cluster.
	if plan, ok, err := a.solveStep(d, stepAccuracy); err != nil {
		return nil, err
	} else if ok {
		return plan, nil
	}
	// Step 3: saturation — maximize the served fraction.
	plan, ok, err := a.solveStep(d, stepSaturation)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Last resort: a greedy bottleneck-proportional plan. Reached only
		// if even the saturation search exhausts its budget without an
		// incumbent.
		return a.greedyPlan(d), nil
	}
	return plan, nil
}

// Capped returns a view of the allocator whose per-class server counts are
// bounded to caps (one entry per hardware class, in class order). The
// configuration graph, paths, and solving machinery are shared (they depend
// only on the SLO, not the cluster size), so the view is cheap: a capped
// solve reuses the parent's built LP model for the same demand and step and
// only swaps the per-class capacity rows' right-hand sides, rather than
// rebuilding the whole formulation. Multi-tenant arbitration uses it to
// re-solve a pipeline inside its granted partition of the shared pool.
func (a *Allocator) Capped(caps []int) *Allocator {
	b := *a
	b.counts = append([]int(nil), caps...)
	b.Opts.Servers = 0
	for _, n := range caps {
		b.Opts.Servers += n
	}
	return &b
}

// AllocateCapped is Allocate with the per-class server counts temporarily
// bounded to caps (the CappedPlanner hook for multi-tenant arbitration). The
// grant vector must have one entry per hardware class and its total must
// cover one replica per task — below that no plan can serve the pipeline at
// all, and the saturation fallbacks would overshoot the cap.
func (a *Allocator) AllocateCapped(demand float64, caps []int) (*Plan, error) {
	if err := a.checkCaps(caps); err != nil {
		return nil, err
	}
	return a.Capped(caps).Allocate(demand)
}

// checkCaps validates a per-class grant vector against the class set and the
// keep-warm minimum.
func (a *Allocator) checkCaps(caps []int) error {
	if len(caps) != len(a.classes) {
		return fmt.Errorf("core: capped allocation got %d class grants for %d hardware classes", len(caps), len(a.classes))
	}
	total := 0
	for i, n := range caps {
		if n < 0 {
			return fmt.Errorf("core: negative grant %d for hardware class %q", n, a.classes[i].Name)
		}
		total += n
	}
	if total <= 0 {
		return fmt.Errorf("core: capped allocation needs a positive server budget, got %d", total)
	}
	if warm := len(a.Meta.Graph().Tasks); total < warm {
		return fmt.Errorf("core: capped allocation of %d servers cannot hold one replica of each of %d tasks", total, warm)
	}
	return nil
}

// greedyPlan builds a throughput-first fallback: every task gets its
// fastest latency-feasible configuration, servers are split proportionally
// to per-task load, and the served fraction is whatever the bottleneck
// sustains. It exists so the Resource Manager always returns a usable plan
// even when the optimizer is starved of time.
func (a *Allocator) greedyPlan(demand float64) *Plan {
	g := a.Meta.Graph()
	// Fastest feasible config per task, reserving one server slot on the
	// chosen class per task: on a mixed fleet the fastest configs all live
	// on the fastest class, which may be smaller than the task count, and a
	// choice the class cannot host would leave replicas unplaced at the
	// engines. When every class with feasible configs is fully reserved
	// (cluster smaller than the pipeline), fall back to the overall fastest
	// — the pre-class behavior.
	classFree := append([]int(nil), a.counts...)
	best := make([]int, len(g.Tasks))
	for i := range g.Tasks {
		best[i] = -1
		fastest := -1
		for _, ci := range a.byTask[i] {
			if fastest < 0 || a.cfgs[ci].qps > a.cfgs[fastest].qps {
				fastest = ci
			}
			if classFree[a.cfgs[ci].class] <= 0 {
				continue
			}
			if best[i] < 0 || a.cfgs[ci].qps > a.cfgs[best[i]].qps {
				best[i] = ci
			}
		}
		if best[i] < 0 {
			best[i] = fastest
		} else {
			classFree[a.cfgs[best[i]].class]--
		}
	}
	// Per-task demand multiplier using the chosen variants.
	load := make([]float64, len(g.Tasks))
	var walk func(id pipeline.TaskID, mult float64)
	walk = func(id pipeline.TaskID, mult float64) {
		load[id] += mult
		c := &a.cfgs[best[id]]
		out := mult * a.Meta.MultFactor(id, c.variant)
		for _, ch := range g.Tasks[id].Children {
			walk(ch.Task, out*ch.BranchRatio)
		}
	}
	walk(0, 1)

	weight := 0.0
	for i := range g.Tasks {
		weight += load[i] / a.cfgs[best[i]].qps
	}
	plan := &Plan{Mode: Saturated, Demand: demand, ServedFraction: 1}
	served := math.Inf(1)
	counts := make([]int, len(g.Tasks))
	total := 0
	for i := range g.Tasks {
		share := (load[i] / a.cfgs[best[i]].qps) / weight
		counts[i] = int(math.Max(1, math.Floor(share*float64(a.Opts.Servers))))
		total += counts[i]
	}
	// Rounding the small shares up to one replica can overshoot the budget;
	// shed replicas from the largest tasks so capped (multi-tenant) plans
	// never exceed their partition.
	for total > a.Opts.Servers {
		biggest := -1
		for i, n := range counts {
			if n > 1 && (biggest < 0 || n > counts[biggest]) {
				biggest = i
			}
		}
		if biggest < 0 {
			break
		}
		counts[biggest]--
		total--
	}
	// The fastest configurations may pile onto one hardware class; shed the
	// same way per class so the fallback plan respects every class's count.
	// (On a homogeneous cluster the total shed above already did this.)
	for cl := range a.classes {
		for {
			classTotal := 0
			for i := range g.Tasks {
				if a.cfgs[best[i]].class == cl {
					classTotal += counts[i]
				}
			}
			if classTotal <= a.counts[cl] {
				break
			}
			biggest := -1
			for i, n := range counts {
				if a.cfgs[best[i]].class == cl && n > 1 && (biggest < 0 || n > counts[biggest]) {
					biggest = i
				}
			}
			if biggest < 0 {
				break
			}
			counts[biggest]--
		}
	}
	plan.ServersByClass = make([]int, len(a.classes))
	for i := range g.Tasks {
		n := counts[i]
		c := &a.cfgs[best[i]]
		plan.Assignments = append(plan.Assignments, Assignment{
			Task: c.task, Variant: c.variant, MaxBatch: c.batch, Replicas: n,
			Class: c.class, ClassName: a.classes[c.class].Name,
			QPS: c.qps, LatencySec: c.lat, Accuracy: c.acc, BudgetSec: 2 * c.lat,
		})
		plan.ServersUsed += n
		plan.ServersByClass[c.class] += n
		plan.CostPerHour += float64(n) * a.classes[c.class].CostPerHour
		if cap := float64(n) * c.qps / load[i]; cap < served {
			served = cap
		}
	}
	if demand > 0 {
		plan.ServedFraction = math.Min(1, served/demand)
	}
	acc := 0.0
	for _, tp := range g.TaskPaths() {
		pa := 1.0
		for _, id := range tp.Tasks {
			pa *= a.cfgs[best[id]].acc
		}
		acc += pa
	}
	plan.ExpectedAccuracy = acc / float64(len(g.TaskPaths()))
	plan.SolveStats = SolveStats{Step: 3}
	return plan
}

// AllocateHardwareOnly restricts the allocator to hardware scaling with the
// most accurate variants, the InferLine-like baseline regime: minimize
// servers while demand fits, and beyond that serve the largest possible
// fraction at fixed accuracy using the whole cluster. Loki itself never
// calls this; internal/baselines does.
func (a *Allocator) AllocateHardwareOnly(demand float64) (*Plan, error) {
	d := demand * (1 + a.Opts.Headroom)
	if d < 0 {
		d = 0
	}
	if plan, ok, err := a.solveStep(d, stepHardware); err != nil {
		return nil, err
	} else if ok {
		return plan, nil
	}
	plan, ok, err := a.solveStep(d, stepHardwareSat)
	if err != nil {
		return nil, err
	}
	if !ok {
		return a.greedyPlan(d), nil
	}
	return plan, nil
}

type stepKind int8

const (
	stepHardware stepKind = iota + 1
	stepAccuracy
	stepSaturation
	// stepHardwareSat is the saturation objective restricted to the most
	// accurate variants (the InferLine-like baseline past cluster
	// capacity).
	stepHardwareSat
)

// solveStep solves one of the three MILPs against the memoized step model.
// Variable layout:
//
//	[0, P)      c_p   continuous path flows
//	[P]         f     served fraction (step 3 only; fixed 1 otherwise)
//	[P+1, ...)  n_u   integer replica counts per used config
func (a *Allocator) solveStep(demand float64, step stepKind) (*Plan, bool, error) {
	st := a.state
	st.mu.Lock()
	defer st.mu.Unlock()

	bl := a.builtFor(demand, step)
	useCfg, cfgVar, nvars, clusterRows, prob := bl.useCfg, bl.cfgVar, bl.nvars, bl.clusterRows, bl.prob
	// The memoized model is shared across per-class caps (Capped views); only
	// the class capacity rows' RHS differ between them, so swap them in.
	for cl, row := range clusterRows {
		prob.Cons[row].RHS = float64(a.counts[cl])
	}

	P := len(a.paths)
	fVar := P

	intMask := make([]bool, nvars)
	for _, vi := range cfgVar {
		if vi >= 0 {
			intMask[vi] = true
		}
	}

	mkPlan := func(x []float64, stats SolveStats) *Plan {
		plan := a.extractPlan(x, useCfg, cfgVar, fVar, demand, step)
		stats.Step = int(step)
		stats.Paths = len(a.paths)
		stats.Vars = nvars
		stats.Constraints = len(prob.Cons)
		plan.SolveStats = stats
		// Every extracted point is integer-feasible for its model, which
		// makes it the natural warm start for the next round's solve of
		// the same step (it is re-verified against the new demand and cap
		// before use).
		if !a.Opts.DisableReuse {
			st.lastX[step] = append([]float64(nil), x...)
		}
		return plan
	}

	relax, err := lp.SolveWS(prob, lp.Options{}, &st.ws)
	if err != nil {
		return nil, false, err
	}
	if relax.Status == lp.Infeasible {
		return nil, false, nil
	}

	// Ceil heuristic: round every replica count up. Capacity rows only get
	// slacker, so the point stays feasible unless a class capacity
	// constraint breaks. For steps 2 and 3 the objective depends only on the
	// flows (plus, on priced fleets, a cost term the rounding can only
	// overestimate within the gap tolerance), so a fitting rounded point is
	// outright optimal; for step 1 it seeds the branch and bound with a
	// strong incumbent.
	fits := func(totals []int) bool {
		for cl, n := range totals {
			if n > a.counts[cl] {
				return false
			}
		}
		return true
	}
	var seed []float64
	relaxX := []float64(nil)
	if relax.Status == lp.Optimal {
		// The relaxation is handed to the search as its root below; its
		// point lives in the workspace, which the LPs in between reuse.
		relax.X = append([]float64(nil), relax.X...)
		relaxX = relax.X
		x, totals := a.ceilReplicas(relaxX, cfgVar)
		if fits(totals) {
			if step != stepHardware && !a.priced {
				return mkPlan(x, SolveStats{Nodes: 1, LPIters: relax.Iters, Proven: true}), true, nil
			}
			seed = x
		}
	}
	if seed == nil && step != stepHardware {
		// The rounded point overflows some class. Re-solve the relaxation
		// with tightened class budgets until rounding fits — a fast,
		// slightly conservative feasible point to seed the search. The
		// first iteration reuses the relaxation already solved above (the
		// budgets start untightened, so it is the identical LP); later
		// iterations swap the budgets into the shared model's class rows and
		// re-optimise a fork of the relaxation's tableau — only those rows'
		// right-hand sides changed — and both the rows and the tableau are
		// restored before the branch-and-bound runs.
		forked := false
		budgets := make([]float64, len(a.counts))
		for cl, n := range a.counts {
			budgets[cl] = float64(n)
		}
		x0 := relaxX
		for iter := 0; iter < 6; iter++ {
			x, totals := a.ceilReplicas(x0, cfgVar)
			if x == nil {
				break
			}
			if fits(totals) {
				seed = x
				break
			}
			under := false
			for cl, n := range totals {
				if n > a.counts[cl] {
					budgets[cl] -= float64(n - a.counts[cl])
					if budgets[cl] < 0 {
						under = true
					}
				}
			}
			if under {
				break
			}
			for cl, row := range clusterRows {
				prob.Cons[row].RHS = budgets[cl]
			}
			forked = forked || st.ws.Fork()
			x0 = a.relaxOrNil(prob, clusterRows, budgets)
		}
		for cl, row := range clusterRows {
			prob.Cons[row].RHS = float64(a.counts[cl])
		}
		if forked {
			st.ws.Swap()
		}
	}

	opts := milp.Options{
		TimeLimit: a.Opts.SolveTimeLimit,
		Incumbent: seed,
		Workspace: &st.ws,
	}
	if opts.TimeLimit == 0 {
		opts.TimeLimit = 2 * time.Second
	}
	// Warm-start the search from the previous round's solution of the same
	// step: the variable layout per step is fixed, so the old point either
	// verifies against the new demand and cap (and prunes the tree from
	// node one) or is silently dropped.
	if !a.Opts.DisableReuse {
		if wx := st.lastX[step]; len(wx) == nvars {
			opts.WarmStarts = [][]float64{wx}
		}
	}
	// Greedy first pass: a priority-ordered path choice with ceiling-sized
	// replicas, offered as an additional warm start — but only to
	// proof-seeking searches, where the MILP's warm-start contract makes the
	// result bit-identical with or without it (the seed prunes from node one
	// and never displaces an equally good solution the search finds itself).
	// Gap-tolerant searches use warm starts as a strictly-better fallback,
	// where a lucky greedy point could displace a within-gap incumbent and
	// change which of several near-optimal plans a deterministic run
	// returns; those searches run unseeded to keep plans reproducible.
	if step == stepHardware && !a.priced {
		if gx := a.greedySeed(demand, step, bl); gx != nil {
			opts.WarmStarts = append(opts.WarmStarts, gx)
		}
	}
	// Stall cutoff: once a quarter of the budget is burned, a search whose
	// best solution has not improved for ~a hundred nodes — and whose
	// plateau spans at least half its explored tree — is returning
	// diminishing bounds only; stop it and keep the incumbent (or fall
	// through to the next regime) instead of burning the rest of the
	// control period. Solves that finish inside the arming delay — all the
	// reproducibility-sensitive ones — never reach it, and searches that
	// keep improving are never cut however slow the host. DisableStall
	// opts out explicitly, and DisableReuse turns the cutoff off with the
	// rest of the fast path, so the escape hatch recovers the exhaustive
	// (full-budget) solver exactly.
	if !a.Opts.DisableReuse && !a.Opts.DisableStall {
		opts.StallAfter = opts.TimeLimit / 4
		opts.StallNodes = 96
	}
	if step == stepHardware && !a.priced {
		// Minimize an integer count: bounds round to whole servers. (On a
		// priced fleet the objective is a dollar rate, not a count, so the
		// integral-bound rounding does not apply.)
		opts.ObjIntegral = true
	} else if step == stepHardware {
		// Cost-minimizing hardware scaling: chase the proof only to within
		// the same tolerance accuracy scaling uses — sub-percent dollar
		// differences are below provisioning noise.
		opts.RelGap = 0.01
	} else {
		// Replica counts are integral, so on a 20-server cluster the true
		// optimum sits ≈1% below the fractional relaxation bound; chasing a
		// tighter proof than that burns the whole time budget for accuracy
		// differences far below profiling noise.
		opts.RelGap = 0.01
	}

	st.milpSolves++
	res, err := milp.SolveWithOptions(&milp.Problem{LP: prob, Integer: intMask, Root: relax}, opts)
	if err != nil {
		return nil, false, err
	}
	switch res.Status {
	case milp.Infeasible:
		return nil, false, nil
	case milp.Optimal, milp.Feasible:
		return mkPlan(res.X, SolveStats{
			Nodes: res.Nodes, LPIters: res.LPIters,
			Proven: res.Status == milp.Optimal, Truncated: res.Truncated,
		}), true, nil
	default:
		// Search budget exhausted without an incumbent. Fall back to the
		// heuristic seed when we have one; otherwise report infeasible-for-
		// this-step so Allocate falls through to the next regime.
		if seed != nil {
			return mkPlan(seed, SolveStats{Nodes: res.Nodes, LPIters: res.LPIters, Truncated: true}), true, nil
		}
		return nil, false, nil
	}
}

// ceilReplicas rounds the replica variables of a relaxation point up to
// integers, returning the rounded point and the per-class replica totals.
func (a *Allocator) ceilReplicas(x []float64, cfgVar []int) ([]float64, []int) {
	if x == nil {
		return nil, nil
	}
	out := append([]float64(nil), x...)
	totals := make([]int, len(a.classes))
	for ci, vi := range cfgVar {
		if vi >= 0 {
			out[vi] = math.Ceil(out[vi] - 1e-9)
			totals[a.cfgs[ci].class] += int(out[vi])
		}
	}
	return out, totals
}

// relaxOrNil solves the LP relaxation of p through the shared workspace after
// the given rows took new right-hand sides, returning its point
// (workspace-owned; valid until the next solve) or nil. It re-optimises the
// tableau the workspace retains when there is one, and solves from scratch
// otherwise. Callers hold a.state.mu.
func (a *Allocator) relaxOrNil(p *lp.Problem, rows []int, rhs []float64) []float64 {
	if s, ok := a.state.ws.SetRHS(rows, rhs, lp.Options{}); ok && s.Status != lp.IterLimit {
		if s.Status != lp.Optimal {
			return nil
		}
		return s.X
	}
	s, err := lp.SolveWS(p, lp.Options{}, &a.state.ws)
	if err != nil || s.Status != lp.Optimal {
		return nil
	}
	return s.X
}

// buildLP constructs the LP for one step. It returns the set of usable
// configs, the variable index of each config's replica count (-1 if the
// config is not usable in this step), the variable count, the per-class
// capacity row indices, and the problem.
func (a *Allocator) buildLP(demand float64, step stepKind) (useCfg []bool, cfgVar []int, nvars int, clusterRows []int, prob *lp.Problem) {
	g := a.Meta.Graph()
	P := len(a.paths)
	fVar := P

	// Step 1 admits only each task's most accurate variant (Eq. 8-10).
	bestVariant := make([]int, len(g.Tasks))
	for i := range g.Tasks {
		bestVariant[i] = g.Tasks[i].MostAccurate()
	}
	fixedVariants := step == stepHardware || step == stepHardwareSat
	saturating := step == stepSaturation || step == stepHardwareSat
	usable := func(c *config) bool {
		return !fixedVariants || c.variant == bestVariant[c.task]
	}

	useCfg = make([]bool, len(a.cfgs))
	usablePath := make([]bool, P)
	for pi := range a.paths {
		ok := true
		for _, ci := range a.paths[pi].cfgs {
			if !usable(&a.cfgs[ci]) {
				ok = false
				break
			}
		}
		usablePath[pi] = ok
		if ok {
			for _, ci := range a.paths[pi].cfgs {
				useCfg[ci] = true
			}
		}
	}

	cfgVar = make([]int, len(a.cfgs))
	nvars = P + 1
	for ci := range a.cfgs {
		if useCfg[ci] {
			cfgVar[ci] = nvars
			nvars++
		} else {
			cfgVar[ci] = -1
		}
	}

	prob = lp.NewProblem(nvars)

	// Flow conservation per sink: Σ_{p∈P_s} c_p = f (Σ c_p = 1 when f is
	// pinned). Unusable paths are forced to zero flow.
	for _, pidx := range a.pathsBySink {
		terms := make([]lp.Term, 0, len(pidx)+1)
		for _, pi := range pidx {
			if usablePath[pi] {
				terms = append(terms, lp.Term{Var: pi, Coef: 1})
			} else {
				prob.AddConstraint([]lp.Term{{Var: pi, Coef: 1}}, lp.LE, 0)
			}
		}
		terms = append(terms, lp.Term{Var: fVar, Coef: -1})
		prob.AddConstraint(terms, lp.EQ, 0)
	}
	if saturating {
		prob.AddConstraint([]lp.Term{{Var: fVar, Coef: 1}}, lp.LE, 1)
	} else {
		prob.AddConstraint([]lp.Term{{Var: fVar, Coef: 1}}, lp.EQ, 1)
	}

	// Flow consistency at shared config prefixes: a request visits the
	// tasks above a branch point once, so the fraction of traffic that
	// follows a given sequence of configurations down to a branching task
	// must be the same no matter which sink's path family measures it.
	// (Per-prefix equality is strictly stronger than per-config equality
	// and is what makes the per-sink capacity accounting in Eq. 2 well
	// defined, because the workload multiplier m(p, hop) depends on the
	// whole prefix.) A prefix with usable continuations toward one sink but
	// none toward another is forced to zero flow: deploying it would doom
	// the unreachable sink's sub-requests to SLO violations.
	type prefixKey struct {
		hop  int
		last int // config id at the prefix's final hop
		key  string
	}
	prefixSinks := map[prefixKey]map[int][]lp.Term{}
	var keyBuf []byte
	for pi := range a.paths {
		if !usablePath[pi] {
			continue
		}
		pth := &a.paths[pi]
		keyBuf = keyBuf[:0]
		for h, ci := range pth.cfgs {
			keyBuf = append(keyBuf, byte(ci), byte(ci>>8), byte(ci>>16))
			k := prefixKey{hop: h, last: ci, key: string(keyBuf)}
			m := prefixSinks[k]
			if m == nil {
				m = map[int][]lp.Term{}
				prefixSinks[k] = m
			}
			m[pth.sink] = append(m[pth.sink], lp.Term{Var: pi, Coef: 1})
		}
	}
	// Sinks reachable from each task (over usable paths) determine where
	// equality rows are needed.
	taskSinks := make([]map[int]bool, len(g.Tasks))
	for i := range taskSinks {
		taskSinks[i] = map[int]bool{}
	}
	for pi := range a.paths {
		if !usablePath[pi] {
			continue
		}
		for _, ci := range a.paths[pi].cfgs {
			taskSinks[a.cfgs[ci].task][a.paths[pi].sink] = true
		}
	}
	// Emit the consistency rows in a deterministic order (sorted prefix
	// keys, then ascending sink): constraint row order decides simplex
	// tie-breaks, and iterating the map directly would randomize which of
	// several equally optimal vertices a solve returns from one model
	// build to the next.
	prefixKeys := make([]prefixKey, 0, len(prefixSinks))
	for k := range prefixSinks {
		prefixKeys = append(prefixKeys, k)
	}
	sort.Slice(prefixKeys, func(i, j int) bool {
		a, b := prefixKeys[i], prefixKeys[j]
		if a.hop != b.hop {
			return a.hop < b.hop
		}
		if a.last != b.last {
			return a.last < b.last
		}
		return a.key < b.key
	})
	for _, k := range prefixKeys {
		perSink := prefixSinks[k]
		reachable := taskSinks[a.cfgs[k.last].task]
		if len(reachable) < 2 {
			continue
		}
		ref := -1
		for s := range reachable {
			if ref < 0 || s < ref {
				ref = s
			}
		}
		refTerms := perSink[ref] // nil means flow 0 through this prefix
		for s := 0; s < len(a.sinks); s++ {
			if s == ref || !reachable[s] {
				continue
			}
			terms := perSink[s]
			if len(refTerms) == 0 && len(terms) == 0 {
				continue
			}
			row := append(append([]lp.Term(nil), refTerms...), negate(terms)...)
			prob.AddConstraint(row, lp.EQ, 0)
		}
	}

	// Capacity (Eq. 2): demand arriving at each config, accounted through
	// its task's canonical sink (the smallest sink with usable paths
	// through the task — the same reference the consistency rows use, so
	// the decomposition is well defined), must not exceed its replicas'
	// aggregate throughput.
	for ci := range a.cfgs {
		if !useCfg[ci] {
			continue
		}
		c := &a.cfgs[ci]
		canon := -1
		for s := range taskSinks[c.task] {
			if canon < 0 || s < canon {
				canon = s
			}
		}
		var terms []lp.Term
		if canon >= 0 {
			for _, pi := range a.pathsBySink[canon] {
				if !usablePath[pi] {
					continue
				}
				pth := &a.paths[pi]
				for h, pci := range pth.cfgs {
					if pci == ci {
						terms = append(terms, lp.Term{Var: pi, Coef: demand * pth.mults[h]})
					}
				}
			}
		}
		terms = append(terms, lp.Term{Var: cfgVar[ci], Coef: -c.qps})
		prob.AddConstraint(terms, lp.LE, 0)
	}

	// Cluster size (Eq. 3), one capacity row per hardware class: the
	// replicas hosted on a class must fit that class's server count. On a
	// homogeneous cluster this is the classic single cluster-size row.
	clusterRows = make([]int, len(a.classes))
	for cl := range a.classes {
		var clusterTerms []lp.Term
		for ci := range a.cfgs {
			if useCfg[ci] && a.cfgs[ci].class == cl {
				clusterTerms = append(clusterTerms, lp.Term{Var: cfgVar[ci], Coef: 1})
			}
		}
		clusterRows[cl] = prob.AddConstraint(clusterTerms, lp.LE, float64(a.counts[cl]))
	}

	// Keep-warm: at least one replica per task.
	if a.Opts.KeepWarm {
		for i := range g.Tasks {
			var terms []lp.Term
			for _, ci := range a.byTask[i] {
				if useCfg[ci] {
					terms = append(terms, lp.Term{Var: cfgVar[ci], Coef: 1})
				}
			}
			if len(terms) > 0 {
				prob.AddConstraint(terms, lp.GE, 1)
			}
		}
	}

	// Objective.
	switch step {
	case stepHardware:
		// Minimize active servers (Eq. 11). On a priced fleet the weight is
		// each class's dollar rate instead — the INFaaS-style cost-aware
		// variant — with a tiny per-replica epsilon so even a zero-cost
		// class never deploys replicas for free. A fleet with no costs at
		// all keeps the classic unit weights bit for bit.
		prob.Maximize = false
		for ci := range a.cfgs {
			if useCfg[ci] {
				w := 1.0
				if a.priced {
					w = a.classes[a.cfgs[ci].class].CostPerHour + serverCostEps
				}
				prob.SetObjectiveTerm(cfgVar[ci], w)
			}
		}
	case stepAccuracy, stepSaturation, stepHardwareSat:
		// Maximize system accuracy (Eq. 12): the sink-averaged,
		// flow-weighted end-to-end accuracy. Saturation adds a large
		// reward on the served fraction, making the objective
		// lexicographic: serve as much as possible, then as accurately as
		// possible. On a priced fleet a small per-replica cost penalty
		// breaks ties between accuracy-equivalent deployments toward the
		// cheaper classes; its scale keeps any induced accuracy loss well
		// inside the solver's 1% gap tolerance, and zero-cost fleets add no
		// terms at all.
		prob.Maximize = true
		w := 1.0 / float64(len(a.sinks))
		for pi := range a.paths {
			if usablePath[pi] {
				prob.SetObjectiveTerm(pi, w*a.paths[pi].acc)
			}
		}
		if a.priced {
			for ci := range a.cfgs {
				if useCfg[ci] {
					cost := a.classes[a.cfgs[ci].class].CostPerHour + serverCostEps
					prob.SetObjectiveTerm(cfgVar[ci], -accuracyCostEps*cost)
				}
			}
		}
		if saturating {
			prob.SetObjectiveTerm(fVar, 1000)
		}
	}
	return useCfg, cfgVar, nvars, clusterRows, prob
}

// serverCostEps keeps every replica weakly penalized in the cost-aware
// hardware-scaling objective, so a class priced at zero is still never
// deployed gratuitously; accuracyCostEps scales the cost tie-breaker mixed
// into the accuracy-scaling objective (small enough that trading real
// accuracy for cost stays inside the solver's gap tolerance).
const (
	serverCostEps   = 1e-6
	accuracyCostEps = 1e-4
)

func negate(terms []lp.Term) []lp.Term {
	out := make([]lp.Term, len(terms))
	for i, t := range terms {
		out[i] = lp.Term{Var: t.Var, Coef: -t.Coef}
	}
	return out
}

// extractPlan converts a solver point into a Plan.
func (a *Allocator) extractPlan(x []float64, useCfg []bool, cfgVar []int, fVar int, demand float64, step stepKind) *Plan {
	plan := &Plan{
		Demand:         demand,
		ServedFraction: 1,
	}
	switch step {
	case stepHardware:
		plan.Mode = HardwareScaling
	case stepAccuracy:
		plan.Mode = AccuracyScaling
	case stepSaturation, stepHardwareSat:
		plan.Mode = Saturated
		plan.ServedFraction = x[fVar]
	}

	plan.ServersByClass = make([]int, len(a.classes))
	for ci := range a.cfgs {
		if !useCfg[ci] {
			continue
		}
		n := int(math.Round(x[cfgVar[ci]]))
		if n <= 0 {
			continue
		}
		c := &a.cfgs[ci]
		plan.Assignments = append(plan.Assignments, Assignment{
			Task:       c.task,
			Variant:    c.variant,
			MaxBatch:   c.batch,
			Replicas:   n,
			Class:      c.class,
			ClassName:  a.classes[c.class].Name,
			QPS:        c.qps,
			LatencySec: c.lat,
			Accuracy:   c.acc,
			BudgetSec:  2 * c.lat,
		})
		plan.ServersUsed += n
		plan.ServersByClass[c.class] += n
		plan.CostPerHour += float64(n) * a.classes[c.class].CostPerHour
	}

	g := a.Meta.Graph()
	accSum, flowSum := 0.0, 0.0
	for pi, pth := range a.paths {
		frac := x[pi]
		if frac < 1e-9 {
			continue
		}
		tasks := make([]pipeline.TaskID, len(pth.cfgs))
		variants := make([]int, len(pth.cfgs))
		batches := make([]int, len(pth.cfgs))
		for h, ci := range pth.cfgs {
			tasks[h] = a.cfgs[ci].task
			variants[h] = a.cfgs[ci].variant
			batches[h] = a.cfgs[ci].batch
		}
		plan.PathFlows = append(plan.PathFlows, PathFlow{
			Tasks: tasks, Variants: variants, Batches: batches,
			Fraction: frac, Accuracy: pth.acc,
		})
		accSum += frac * pth.acc
		flowSum += frac
	}
	if flowSum > 0 {
		plan.ExpectedAccuracy = accSum / flowSum
	} else {
		plan.ExpectedAccuracy = g.MaxAccuracy()
	}
	return plan
}

// MaxCapacity estimates the largest demand (QPS) the cluster can fully serve
// by bisecting on Allocate feasibility at the given accuracy floor. It is
// used by the Figure-1 capacity analysis.
func (a *Allocator) MaxCapacity(lo, hi float64) float64 {
	for i := 0; i < 24 && hi-lo > 0.5; i++ {
		mid := (lo + hi) / 2
		plan, err := a.Allocate(mid)
		if err == nil && plan.Mode != Saturated {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
