package core

import (
	"fmt"
	"math"
	"slices"
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
	// DisableReuse turns off the planner's cross-solve memory: every solve
	// builds its step model afresh instead of patching the allocator's
	// standing one, and no warm-start seed is carried from one adaptation
	// round to the next. Solves whose searches terminate deterministically
	// (optimality proof or gap test) return identical plans either way —
	// reuse only changes how fast they get there and which incumbent a
	// time-limited search has in hand when truncated. The escape hatch
	// exists for A/B measurement and for the public WithPlannerCache(false)
	// option.
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
	opts AllocatorOptions

	// classes are the cluster's hardware classes and counts their effective
	// per-class server counts (the homogeneous path resolves the single
	// default class to Opts.Servers). Capped views override counts only.
	classes []profiles.Class
	counts  []int
	// priced is true when any class carries a positive CostPerHour, turning
	// the cost-aware objective terms on. A zero-cost fleet keeps the
	// pre-class objectives bit for bit.
	priced bool

	cfgs        []config  // every configuration the batch pruning keeps; latency is checked per path
	byTask      [][]int   // config indices per task
	paths       []cfgPath // the latency-feasible, undominated root-to-sink config paths
	sinkOf      []int     // canonical sink index per task (index into sinks)
	sinks       []pipeline.TaskID
	pathsBySink [][]int // path indices grouped by terminal sink

	// state is the reusable solving machinery (step models, warm starts,
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
	a := &Allocator{Meta: meta, opts: opts, state: newSolverState()}
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
	if a.opts.Servers == 0 {
		a.opts.Servers = total
	} else if a.opts.Servers != total {
		return nil, fmt.Errorf("core: Servers option (%d) disagrees with the hardware classes' total count (%d)", a.opts.Servers, total)
	}
	if a.opts.Servers <= 0 {
		return nil, fmt.Errorf("core: allocator needs a positive cluster size, got %d", a.opts.Servers)
	}
	if f := a.opts.MinPathAccuracy; math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("core: minimum path accuracy must be a finite number, got %v", f)
	}
	if err := meta.Graph().Validate(); err != nil {
		return nil, err
	}
	fit, bestAcc := a.build()
	if fit == 0 {
		return nil, fmt.Errorf("core: no configuration path fits the %.0fms SLO — even batch-1 latencies of the fastest variants exceed the compute budget", meta.SLO()*1e3)
	}
	if len(a.paths) == 0 {
		return nil, fmt.Errorf("core: no configuration path reaches the minimum path accuracy %g — the most accurate of the %d paths that fit the %.0fms SLO reaches %.3f",
			a.opts.MinPathAccuracy, fit, meta.SLO()*1e3, bestAcc)
	}
	return a, nil
}

// build enumerates configurations and feasible paths. It returns how many
// paths fit the SLO before the accuracy floor prunes any, and the best
// accuracy among them.
func (a *Allocator) build() (fit int, bestAcc float64) {
	g := a.Meta.Graph()
	classProf := a.Meta.ClassProfiles()

	// A task's configurations are numbered by (variant, class, batch), so
	// every variant's, and every (variant, class)'s, form one contiguous
	// run: bounds[task][variant][cl] is where class cl's run starts, and
	// the last entry is where the variant's ends.
	a.byTask = make([][]int, len(g.Tasks))
	bounds := make([][][]int, len(g.Tasks))
	for i := range g.Tasks {
		bounds[i] = make([][]int, len(g.Tasks[i].Variants))
		for k := range g.Tasks[i].Variants {
			bounds[i][k] = make([]int, 0, len(a.classes)+1)
			for cl := range a.classes {
				bounds[i][k] = append(bounds[i][k], len(a.cfgs))
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
			bounds[i][k] = append(bounds[i][k], len(a.cfgs))
		}
	}

	a.sinks = g.Sinks()
	sinkIdx := make([]int, len(g.Tasks))
	for s, id := range a.sinks {
		sinkIdx[id] = s
	}

	// Canonical sink per task: the first sink reachable from it. The
	// consistency constraints make every sink's flow decomposition agree,
	// so capacity accounting may use any one of them. Children come after
	// their parent in topological order, so the reverse walk sees every
	// child's answer before its parent needs it.
	a.sinkOf = make([]int, len(g.Tasks))
	topo := g.TopoOrder()
	for k := len(topo) - 1; k >= 0; k-- {
		id := topo[k]
		if g.Tasks[id].IsSink() {
			a.sinkOf[id] = sinkIdx[id]
			continue
		}
		a.sinkOf[id] = len(a.sinks)
		for _, c := range g.Tasks[id].Children {
			a.sinkOf[id] = min(a.sinkOf[id], a.sinkOf[c.Task])
		}
	}

	// Enumerate feasible config paths for every task path. The compute
	// budget per path is SLO/2 minus one network hop per server traversed
	// (§4.1 halves the SLO to cover queueing; §4.2 subtracts
	// communication).
	budgetFor := func(hops int) float64 {
		return a.Meta.SLO()/2 - float64(hops)*a.opts.NetLatencySec
	}
	// Sink count per task (over the whole graph): a task reachable by more
	// than one sink is "shared" — its configurations participate in the
	// cross-sink consistency constraints and must therefore never be
	// Pareto-pruned within a single sink's path family, or the families
	// would keep disjoint config sets and consistency would force all flow
	// to zero.
	taskPaths := g.TaskPaths()
	sinkCount := make([]int, len(g.Tasks))
	for _, tp := range taskPaths {
		for _, id := range tp.Tasks {
			sinkCount[id]++
		}
	}

	// Scratch reused across task paths: group holds one comparability
	// group's feasible batch combinations and kept one variant sequence's
	// survivors, hops configuration indices per combination; groupQPS holds
	// each group combination's throughput at the exclusive hops; order
	// sorts the survivors; pathCfgs and pathMults collect one task path's
	// emitted hops before they are carved into its paths.
	var (
		group, kept, order, pathCfgs []int
		groupQPS, pathMults          []float64
	)
	a.pathsBySink = make([][]int, len(a.sinks))
	for _, tp := range taskPaths {
		budget := budgetFor(len(tp.Tasks))
		sink := sinkIdx[tp.Tasks[len(tp.Tasks)-1]]
		hops := len(tp.Tasks)
		shared := make([]bool, hops)
		var exclusive []int
		for h, id := range tp.Tasks {
			shared[h] = sinkCount[id] > 1
			if !shared[h] {
				exclusive = append(exclusive, h)
			}
		}

		// For each variant sequence, enumerate latency-feasible batch
		// combos and keep only Pareto-maximal ones: accuracy is identical
		// across combos of a sequence and, once feasible, only per-hop
		// throughput matters to the LP, so a combo componentwise dominated
		// in throughput can never improve a plan. This cuts the path set
		// from the product of batch counts to roughly its staircase
		// frontier. Only combos identical at every shared hop — and on the
		// same hardware class at every exclusive hop — compete; dominance
		// is judged on the exclusive hops' throughput alone. Cross-class
		// combos are incomparable: each class is its own capacity pool with
		// its own cost, so a lower-throughput combo on a cheaper or emptier
		// class can still improve a plan. So the combos are enumerated one
		// comparability group at a time — a fixed configuration at every
		// shared hop and a fixed class at every exclusive one — and
		// dominance is only ever tested inside a group.
		variantChoice := make([]int, hops)
		cfgChoice := make([]int, hops)
		lo, hi := make([]int, hops), make([]int, hops) // the group: hop h ranges over configurations [lo[h], hi[h])
		mf := make([]float64, hops)
		var enumBatches func(hop int, lat float64)
		enumBatches = func(hop int, lat float64) {
			if hop == hops {
				group = append(group, cfgChoice...)
				for _, h := range exclusive {
					groupQPS = append(groupQPS, a.cfgs[cfgChoice[h]].qps)
				}
				return
			}
			for ci := lo[hop]; ci < hi[hop]; ci++ {
				if nl := lat + a.cfgs[ci].lat; nl <= budget {
					cfgChoice[hop] = ci
					enumBatches(hop+1, nl)
				}
			}
		}
		// filter keeps the group's Pareto-maximal combos in kept; of equal
		// ones, the first. Whether a combo is dominated does not depend on
		// the order its rivals are tried in; later combos tend to carry
		// larger batches, so trying them first finds a dominator sooner.
		filter := func() {
			group, groupQPS = group[:0], groupQPS[:0]
			enumBatches(0, 0)
			n, e := len(group)/hops, len(exclusive)
			for i := 0; i < n; i++ {
				q := groupQPS[i*e : (i+1)*e]
				dominated := false
				for j := n - 1; j >= 0 && !dominated; j-- {
					if j == i {
						continue
					}
					geq, strict := true, false
					for h, qa := range groupQPS[j*e : (j+1)*e] {
						qb := q[h]
						if qa < qb {
							geq = false
							break
						}
						if qa > qb {
							strict = true
						}
					}
					dominated = geq && (strict || j < i)
				}
				if !dominated {
					kept = append(kept, group[i*hops:(i+1)*hops]...)
				}
			}
		}
		var enumGroups func(hop int)
		enumGroups = func(hop int) {
			if hop == hops {
				filter()
				return
			}
			b := bounds[tp.Tasks[hop]][variantChoice[hop]]
			if shared[hop] {
				for ci := b[0]; ci < b[len(b)-1]; ci++ {
					lo[hop], hi[hop] = ci, ci+1
					enumGroups(hop + 1)
				}
				return
			}
			for cl := 0; cl+1 < len(b); cl++ {
				lo[hop], hi[hop] = b[cl], b[cl+1]
				enumGroups(hop + 1)
			}
		}
		// emit adds one variant sequence's survivors as paths, in
		// lexicographic order of their configuration indices. Accuracy is
		// the sequence's, so the floor keeps or drops them all.
		emit := func() {
			kept = kept[:0]
			enumGroups(0)
			n := len(kept) / hops
			acc := 1.0
			for h, id := range tp.Tasks {
				acc *= g.Tasks[id].Variants[variantChoice[h]].Accuracy
				mf[h] = a.Meta.MultFactor(id, variantChoice[h])
			}
			if n > 0 {
				fit += n
				bestAcc = max(bestAcc, acc)
			}
			if a.opts.MinPathAccuracy > 0 && acc < a.opts.MinPathAccuracy {
				return
			}
			order = order[:0]
			for k := 0; k < n; k++ {
				order = append(order, k)
			}
			slices.SortFunc(order, func(x, y int) int {
				return slices.Compare(kept[x*hops:(x+1)*hops], kept[y*hops:(y+1)*hops])
			})
			for _, k := range order {
				combo := kept[k*hops : (k+1)*hops]
				pth := cfgPath{sink: sink, acc: acc}
				m := 1.0
				for h, ci := range combo {
					pth.totalLat += a.cfgs[ci].lat
					m *= tp.BranchRatios[h]
					pathMults = append(pathMults, m)
					m *= mf[h]
				}
				pathCfgs = append(pathCfgs, combo...)
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
		first := len(a.paths)
		pathCfgs, pathMults = pathCfgs[:0], pathMults[:0]
		enumVariants(0)
		// One allocation per task path for all its paths' hops.
		cfgs, mults := slices.Clone(pathCfgs), slices.Clone(pathMults)
		for k := range a.paths[first:] {
			o := k * hops
			a.paths[first+k].cfgs = cfgs[o : o+hops : o+hops]
			a.paths[first+k].mults = mults[o : o+hops : o+hops]
		}
	}
	return fit, bestAcc
}

// Allocate runs the Resource Manager's two-step optimization for the given
// demand estimate: hardware scaling first (Eq. 11), accuracy scaling if that
// is infeasible (Eq. 12), and a saturation fallback that serves the largest
// possible fraction of demand when even full accuracy scaling cannot keep
// up. When the saturation search finds no point either, the plan is idle.
func (a *Allocator) Allocate(demand float64) (*Plan, error) {
	d := a.provisioned(demand)

	// Step 1: hardware scaling with the most accurate variants only.
	if plan, ok, err := a.solveStep(d, stepHardware, goalOptimize); err != nil {
		return nil, err
	} else if ok {
		return plan, nil
	}
	// Step 2: accuracy scaling across the whole cluster.
	if plan, ok, err := a.solveStep(d, stepAccuracy, goalOptimize); err != nil {
		return nil, err
	} else if ok {
		return plan, nil
	}
	// Step 3: saturation — maximize the served fraction.
	plan, ok, err := a.solveStep(d, stepSaturation, goalOptimize)
	if err != nil {
		return nil, err
	}
	if !ok {
		return idlePlan(d), nil
	}
	return plan, nil
}

// provisioned is the demand the allocator plans for: the estimate inflated by
// the headroom, never negative.
func (a *Allocator) provisioned(demand float64) float64 {
	d := demand * (1 + a.opts.Headroom)
	if d < 0 {
		d = 0
	}
	return d
}

// servable reports whether Allocate(demand) returns an unsaturated plan,
// doing only the work that decides it: steps 1 and 2 as feasibility probes,
// never step 3.
func (a *Allocator) servable(demand float64) (bool, error) {
	d := a.provisioned(demand)
	for _, step := range []stepKind{stepHardware, stepAccuracy} {
		if _, ok, err := a.solveStep(d, step, goalFeasible); err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// Capped returns a view of the allocator whose per-class server counts are
// bounded to caps (one entry per hardware class, in class order). The
// configuration graph, paths, and solving machinery are shared (they depend
// only on the SLO, not the cluster size), so the view is cheap: a capped
// solve runs on the parent's step models, where a view's counts are only the
// per-class capacity rows' right-hand sides, written before each solve like
// the demand. Multi-tenant arbitration uses it to re-solve a pipeline inside
// its granted partition of the shared pool.
func (a *Allocator) Capped(caps []int) *Allocator {
	b := *a
	b.counts = append([]int(nil), caps...)
	b.opts.Servers = 0
	for _, n := range caps {
		b.opts.Servers += n
	}
	return &b
}

// AllocateCapped is Allocate with the per-class server counts temporarily
// bounded to caps (the CappedPlanner hook for multi-tenant arbitration). The
// grant vector must have one entry per hardware class and its total must
// cover one replica per task — below that no plan can serve the pipeline at
// all.
func (a *Allocator) AllocateCapped(demand float64, caps []int) (*Plan, error) {
	if err := a.CheckCaps(caps); err != nil {
		return nil, err
	}
	return a.Capped(caps).Allocate(demand)
}

// CheckCaps validates a per-class grant vector against the class set and the
// keep-warm minimum: one entry per class, none negative, and a total that
// holds one replica of each task.
func (a *Allocator) CheckCaps(caps []int) error {
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

// AllocateHardwareOnly restricts the allocator to hardware scaling with the
// most accurate variants, the InferLine-like baseline regime: minimize
// servers while demand fits, and beyond that serve the largest possible
// fraction at fixed accuracy using the whole cluster, or the idle plan when
// that finds no point. Loki itself never calls this; internal/baselines does.
func (a *Allocator) AllocateHardwareOnly(demand float64) (*Plan, error) {
	d := a.provisioned(demand)
	if plan, ok, err := a.solveStep(d, stepHardware, goalOptimize); err != nil {
		return nil, err
	} else if ok {
		return plan, nil
	}
	plan, ok, err := a.solveStep(d, stepHardwareSat, goalOptimize)
	if err != nil {
		return nil, err
	}
	if !ok {
		return idlePlan(d), nil
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

// solveGoal is what a solveStep call has to establish.
type solveGoal int8

const (
	// goalOptimize searches for the step's optimum, to its gap tolerance,
	// and returns it as a plan.
	goalOptimize solveGoal = iota
	// goalFeasible only decides whether goalOptimize would return a plan,
	// and stops as soon as that is known: at an infeasible relaxation, at a
	// rounded seed (which guarantees a plan), or at the first integer point
	// of a branch and bound that, up to that point, visits the same nodes
	// in the same order under the same limits as the full search. It
	// returns no plan.
	goalFeasible
	// goalUncut searches as goalOptimize does but without the wall-clock
	// stall cutoff, so that, short of the time limit, its plan and the warm
	// start it leaves do not depend on the host's speed. (The priced
	// hardware step keeps its cutoff, which counts nodes only.) solveStep
	// turns the first step-1 or step-2 goalOptimize search at the demand
	// MaxCapacity owes into this goal.
	goalUncut
)

// solveStep solves one of the step MILPs on the allocator's step model (see
// stepModel for the variable layout), patched for this demand and this
// view's class counts.
func (a *Allocator) solveStep(demand float64, step stepKind, goal solveGoal) (*Plan, bool, error) {
	st := a.state
	st.mu.Lock()
	defer st.mu.Unlock()
	if goal == goalOptimize && step <= stepAccuracy && demand > 0 && demand == st.owed {
		goal = goalUncut
	}

	m := a.modelFor(step)
	m.set(demand, a.counts)
	prob, cfgVar, clusterRows := m.prob, m.cfgVar, m.clusterRows

	// found returns an integer-feasible point the step settled on: as a plan
	// when optimizing, as a bare verdict when probing.
	found := func(x []float64, stats SolveStats) (*Plan, bool, error) {
		// Every such point is integer-feasible for its model, which makes
		// it the natural warm start for the next solve of the same step (it
		// is re-verified against the new demand and cap before use).
		if !a.opts.DisableReuse {
			st.lastX[step] = append([]float64(nil), x...)
		}
		if goal == goalUncut {
			st.owed = 0
		}
		if goal == goalFeasible {
			return nil, true, nil
		}
		plan := a.extractPlan(x, m, demand, step)
		stats.Step = int(step)
		stats.Paths = len(a.paths)
		stats.Vars = prob.NumVars
		stats.Constraints = len(prob.Cons)
		plan.SolveStats = stats
		return plan, true, nil
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
	// strong incumbent. Either way it guarantees the step a plan, which is
	// all a probe asks.
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
			if (step != stepHardware && !a.priced) || goal == goalFeasible {
				return found(x, SolveStats{Nodes: 1, LPIters: relax.Iters, Proven: true})
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
		m.budget(a.counts)
		if forked {
			st.ws.Swap()
		}
		if seed != nil && goal == goalFeasible {
			return found(seed, SolveStats{})
		}
	}

	opts := milp.Options{
		TimeLimit: a.opts.SolveTimeLimit,
		Incumbent: seed,
		Workspace: &st.ws,
	}
	if opts.TimeLimit == 0 {
		opts.TimeLimit = 2 * time.Second
	}
	// Warm-start the search from the previous round's solution of the same
	// step: the variable layout per step is fixed, so the old point either
	// verifies against the new demand and cap (and prunes the tree from
	// node one) or is silently dropped. A probe takes it as the search's
	// incumbent instead: one that verifies decides the probe before the
	// first node, exactly as it would rescue the full search at its end.
	if wx := st.lastX[step]; wx != nil && !a.opts.DisableReuse {
		if goal == goalFeasible {
			opts.Incumbent = wx
		} else {
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
		if gx := a.greedySeed(demand, step, m); gx != nil {
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
	//
	// The cost-minimizing hardware step (priced fleets) is cut at its first
	// such plateau, with no arming delay: its dollar objective has no
	// integral bound to close the gap with, so it always ends on the cutoff,
	// and the mixed-fleet experiment's threshold rests on what the search
	// holds there. Run until the clock arms, a model this small reaches the
	// dollar optimum, whose slow-class small-batch packing serves the same
	// cost per query at 0.80 attainment instead of 0.89 (ARCHITECTURE.md,
	// "Planner performance"). Counting nodes rather than milliseconds also
	// makes these plans the same on every machine.
	if !a.opts.DisableReuse && !a.opts.DisableStall {
		opts.StallAfter = opts.TimeLimit / 4
		opts.StallNodes = 96
		if step == stepHardware && a.priced {
			opts.StallAfter = 0
		} else if goal == goalUncut {
			opts.StallNodes = 0
		}
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
	if goal == goalFeasible {
		// An infinite gap closes the search at its first integer point;
		// until then the gap test never fires, so the probe walks the full
		// search's nodes in the full search's order.
		opts.RelGap = math.Inf(1)
	}

	st.milpSolves++
	res, err := milp.SolveWithOptions(&milp.Problem{LP: prob, Integer: m.integer, Root: relax}, opts)
	if err != nil {
		return nil, false, err
	}
	st.nodes += res.Nodes
	if res.Truncated {
		st.truncated++
	}
	switch res.Status {
	case milp.Infeasible:
		return nil, false, nil
	case milp.Optimal, milp.Feasible:
		return found(res.X, SolveStats{
			Nodes: res.Nodes, LPIters: res.LPIters,
			Proven: res.Status == milp.Optimal, Truncated: res.Truncated,
		})
	default:
		// Search budget exhausted without an incumbent. Fall back to the
		// heuristic seed when we have one; otherwise report infeasible-for-
		// this-step so Allocate falls through to the next regime.
		if seed != nil {
			return found(seed, SolveStats{Nodes: res.Nodes, LPIters: res.LPIters, Truncated: true})
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

// extractPlan converts a solver point into a Plan.
func (a *Allocator) extractPlan(x []float64, m *stepModel, demand float64, step stepKind) *Plan {
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
		plan.ServedFraction = x[m.fVar]
	}

	plan.ServersByClass = make([]int, len(a.classes))
	for ci, vi := range m.cfgVar {
		if vi < 0 {
			continue
		}
		n := int(math.Round(x[vi]))
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
		vi := m.pathVar[pi]
		if vi < 0 || x[vi] < 1e-9 {
			continue
		}
		frac := x[vi]
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

// maxCapacityDoublings bounds how often MaxCapacity doubles its upper end. A
// finite cluster saturates long before: it only guards the loop.
const maxCapacityDoublings = 32

// MaxCapacity estimates the largest demand (QPS) at or above lo the cluster
// can fully serve (under the allocator's own MinPathAccuracy, if any), to
// within 0.5 qps. Admission-fronted tenants take it as their planning demand
// cap.
//
// It bisects on the verdict rule "Allocate(d) returns an unsaturated plan",
// and each probe decides only that: step 1, then step 2, each stopped at
// whatever settles it — an infeasible relaxation, a rounded seed, or the
// first integer point of a branch and bound that walks the full search's
// nodes in its order under its limits. The saturation step never runs: when
// steps 1 and 2 find no plan the verdict is "saturated" whatever step 3
// would return. The probes run one at a time, so a verdict never depends on
// another probe's CPU use through the stall clock.
//
// hi is where the bisection starts, not a ceiling. When every probe succeeds
// and hi itself is servable, the bisection continues on [hi, 2·hi] — the
// probes a plain bisection of [lo, 2·hi] would make after its first. Once
// any probe fails the sequence is exactly a plain bisection of [lo, hi], so
// a capacity below the starting hi is found as before.
//
// A probe's point is only a first integer point, often a rounded seed from a
// lower demand, and it stays behind as the step's warm start. From there a
// search at the capacity itself finds its own first incumbent only about
// when the stall cutoff arms, so its plan would turn on the host's speed.
// The capacity is therefore left owed: the first step-1 or step-2 search
// that plans at exactly it runs as goalUncut, when a tenant first gets there.
func (a *Allocator) MaxCapacity(lo, hi float64) float64 {
	capacity := a.bisectCapacity(lo, hi)
	a.state.mu.Lock()
	defer a.state.mu.Unlock()
	a.state.owed = a.provisioned(capacity)
	return capacity
}

// bisectCapacity is MaxCapacity's bisection over feasibility probes.
func (a *Allocator) bisectCapacity(lo, hi float64) float64 {
	for doublings := 0; ; doublings++ {
		probes, capped := 0, false
		for ; probes < 24 && hi-lo > 0.5; probes++ {
			mid := (lo + hi) / 2
			if ok, err := a.servable(mid); err == nil && ok {
				lo = mid
			} else {
				hi, capped = mid, true
			}
		}
		if capped || probes == 0 || doublings == maxCapacityDoublings {
			return lo
		}
		// Every probe succeeded, so the capacity is within 0.5 qps of hi or
		// beyond it: probe hi itself, and when it holds, go on above it.
		if ok, err := a.servable(hi); err != nil || !ok {
			return lo
		}
		lo, hi = hi, 2*hi
	}
}
