package core

import (
	"sort"

	"loki/internal/lp"
)

// stepModel is one optimization step's MILP, built once per allocator and
// patched in place for every solve. Its rows and columns depend only on the
// pipeline, the profiles, the hardware classes and the step; what moves from
// one solve to the next is the demand — which scales the path coefficients
// of the capacity rows (Eq. 2) — and the per-class server counts, the class
// rows' right-hand sides. set writes both.
//
// Columns exist only for what the step can use, in this order:
//
//	c_p   continuous flow of each usable config path, in path order
//	f     served fraction (free in the saturating steps, fixed to 1 otherwise)
//	n_u   integer replica count of each usable config, in config order
//
// A step that can use every path (accuracy scaling and saturation on the
// stock pipelines) therefore has c_p in column p and f in column len(paths).
type stepModel struct {
	prob    *lp.Problem
	pathVar []int  // column of each config path's flow; -1: the step cannot use the path
	cfgVar  []int  // column of each config's replica count; -1: on no usable path
	fVar    int    // column of the served fraction
	integer []bool // per column: a replica count
	// groups are the replica columns of each (task, class) with more than
	// one, for the accuracy-scaling and saturation searches to branch on
	// (milp.Problem.Groups); nil in the hardware steps.
	groups [][]lp.Term

	clusterRows []int // per-class capacity rows, in class order
	demandTerms []demandTerm

	// greedy is the greedy pass's candidate order per sink, built on the
	// first greedy call (greedyCandidates); costs is that call's scratch.
	greedy [][]int
	costs  []float64
}

// demandTerm locates one capacity-row coefficient demand × mult.
type demandTerm struct {
	row, term int
	mult      float64 // m(p, hop)
}

// set patches the model for one solve: the demand the capacity rows are
// scaled by and the per-class server budgets.
func (m *stepModel) set(demand float64, counts []int) {
	for _, dt := range m.demandTerms {
		m.prob.Cons[dt.row].Terms[dt.term].Coef = demand * dt.mult
	}
	m.budget(counts)
}

// budget sets the class rows' right-hand sides.
func (m *stepModel) budget(counts []int) {
	for cl, row := range m.clusterRows {
		m.prob.Cons[row].RHS = float64(counts[cl])
	}
}

// buildStepModel constructs the model of one step, with zero demand and no
// class budgets; see stepModel.set.
func (a *Allocator) buildStepModel(step stepKind) *stepModel {
	g := a.meta.Graph()

	// Step 1 admits only each task's most accurate variant (Eq. 8-10).
	bestVariant := make([]int, len(g.Tasks))
	for i := range g.Tasks {
		bestVariant[i] = g.Tasks[i].MostAccurate()
	}
	fixedVariants := step == stepHardware || step == stepHardwareSat
	saturating := step == stepSaturation || step == stepHardwareSat

	// A path is usable when every hop's config is; a config gets a column
	// when some usable path visits it.
	m := &stepModel{pathVar: make([]int, len(a.paths)), cfgVar: make([]int, len(a.cfgs))}
	useCfg := make([]bool, len(a.cfgs))
	nvars := 0
	for pi := range a.paths {
		ok := true
		if fixedVariants {
			for _, ci := range a.paths[pi].cfgs {
				if c := &a.cfgs[ci]; c.variant != bestVariant[c.task] {
					ok = false
					break
				}
			}
		}
		if !ok {
			m.pathVar[pi] = -1
			continue
		}
		m.pathVar[pi] = nvars
		nvars++
		for _, ci := range a.paths[pi].cfgs {
			useCfg[ci] = true
		}
	}
	m.fVar = nvars
	nvars++
	for ci := range a.cfgs {
		if useCfg[ci] {
			m.cfgVar[ci] = nvars
			nvars++
		} else {
			m.cfgVar[ci] = -1
		}
	}
	m.integer = make([]bool, nvars)
	for _, vi := range m.cfgVar {
		if vi >= 0 {
			m.integer[vi] = true
		}
	}
	// A task's replica total on a class is integral in every plan, and in
	// the accuracy-scaling steps dozens of near-symmetric configs (variant ×
	// batch) share it: bounding the total splits the search evenly where
	// bounding one config does not. The hardware steps keep branching on
	// single configs: their searches close fast anyway, and the fault
	// scenarios' tier ordering rests on the plans they return (ROADMAP item
	// 7). Every replica column is in one group at most, so one backing array
	// holds them all.
	if step == stepAccuracy || step == stepSaturation {
		terms := make([]lp.Term, 0, nvars-m.fVar-1)
		for i := range g.Tasks {
			for cl := range a.classes {
				start := len(terms)
				for _, ci := range a.byTask[i] {
					if useCfg[ci] && a.cfgs[ci].class == cl {
						terms = append(terms, lp.Term{Var: m.cfgVar[ci], Coef: 1})
					}
				}
				if len(terms)-start > 1 {
					m.groups = append(m.groups, terms[start:len(terms):len(terms)])
				} else {
					terms = terms[:start]
				}
			}
		}
	}

	prob := lp.NewProblem(nvars)
	m.prob = prob

	// Flow conservation per sink: Σ_{p∈P_s} c_p = f (Σ c_p = 1 when f is
	// pinned).
	for _, pidx := range a.pathsBySink {
		terms := make([]lp.Term, 0, len(pidx)+1)
		for _, pi := range pidx {
			if v := m.pathVar[pi]; v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
		}
		terms = append(terms, lp.Term{Var: m.fVar, Coef: -1})
		prob.AddConstraint(terms, lp.EQ, 0)
	}
	if saturating {
		prob.AddConstraint([]lp.Term{{Var: m.fVar, Coef: 1}}, lp.LE, 1)
	} else {
		prob.AddConstraint([]lp.Term{{Var: m.fVar, Coef: 1}}, lp.EQ, 1)
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
	// Sinks reachable from each task (over usable paths) determine where
	// equality rows are needed.
	taskSinks := make([]map[int]bool, len(g.Tasks))
	for i := range taskSinks {
		taskSinks[i] = map[int]bool{}
	}
	for pi := range a.paths {
		v := m.pathVar[pi]
		if v < 0 {
			continue
		}
		pth := &a.paths[pi]
		keyBuf = keyBuf[:0]
		for h, ci := range pth.cfgs {
			keyBuf = append(keyBuf, byte(ci), byte(ci>>8), byte(ci>>16))
			k := prefixKey{hop: h, last: ci, key: string(keyBuf)}
			perSink := prefixSinks[k]
			if perSink == nil {
				perSink = map[int][]lp.Term{}
				prefixSinks[k] = perSink
			}
			perSink[pth.sink] = append(perSink[pth.sink], lp.Term{Var: v, Coef: 1})
			taskSinks[a.cfgs[ci].task][pth.sink] = true
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
	// aggregate throughput. The path coefficients are demand × m(p, hop):
	// built as zero here, located in demandTerms, written by set.
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
		row := len(prob.Cons)
		var terms []lp.Term
		if canon >= 0 {
			for _, pi := range a.pathsBySink[canon] {
				v := m.pathVar[pi]
				if v < 0 {
					continue
				}
				pth := &a.paths[pi]
				for h, pci := range pth.cfgs {
					if pci == ci {
						m.demandTerms = append(m.demandTerms, demandTerm{row: row, term: len(terms), mult: pth.mults[h]})
						terms = append(terms, lp.Term{Var: v})
					}
				}
			}
		}
		terms = append(terms, lp.Term{Var: m.cfgVar[ci], Coef: -c.qps})
		prob.AddConstraint(terms, lp.LE, 0)
	}

	// Cluster size (Eq. 3), one capacity row per hardware class: the
	// replicas hosted on a class must fit that class's server count. On a
	// homogeneous cluster this is the classic single cluster-size row.
	m.clusterRows = make([]int, len(a.classes))
	for cl := range a.classes {
		var clusterTerms []lp.Term
		for ci := range a.cfgs {
			if useCfg[ci] && a.cfgs[ci].class == cl {
				clusterTerms = append(clusterTerms, lp.Term{Var: m.cfgVar[ci], Coef: 1})
			}
		}
		m.clusterRows[cl] = prob.AddConstraint(clusterTerms, lp.LE, 0)
	}

	// Keep-warm: at least one replica per task.
	if a.opts.KeepWarm {
		for i := range g.Tasks {
			var terms []lp.Term
			for _, ci := range a.byTask[i] {
				if useCfg[ci] {
					terms = append(terms, lp.Term{Var: m.cfgVar[ci], Coef: 1})
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
				prob.SetObjectiveTerm(m.cfgVar[ci], w)
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
			if v := m.pathVar[pi]; v >= 0 {
				prob.SetObjectiveTerm(v, w*a.paths[pi].acc)
			}
		}
		if a.priced {
			for ci := range a.cfgs {
				if useCfg[ci] {
					cost := a.classes[a.cfgs[ci].class].CostPerHour + serverCostEps
					prob.SetObjectiveTerm(m.cfgVar[ci], -accuracyCostEps*cost)
				}
			}
		}
		if saturating {
			prob.SetObjectiveTerm(m.fVar, 1000)
		}
	}
	return m
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
