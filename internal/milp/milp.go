// Package milp implements an exact mixed-integer linear programming solver
// using LP-relaxation branch and bound on top of internal/lp.
//
// It plays the role Gurobi plays in the Loki paper: the Resource Manager
// formulates hardware-scaling and accuracy-scaling allocations as MILPs and
// needs proven-optimal solutions on problems with a few hundred integer
// variables. The solver is anytime — give it a budget of simplex pivots and
// it returns the best incumbent found with a bound on the remaining gap, as a
// production controller invokes a commercial solver on a fixed control
// period. Every limit but the TimeLimit safety ceiling counts work (nodes,
// pivots), not time, so a search stops at the same node on every host.
//
// The search is best-bound with plunging. The best open node is popped and
// its relaxation solved from scratch; from there the search branches in
// place, evaluating both children by re-optimising the node's tableau with
// the dual simplex (lp.Workspace.Bound) — a few pivots each instead of a
// fresh two-phase solve — continuing with one child and parking the other on
// the heap under its own bound. The from-scratch node solve remains what a
// popped node, a plunge deeper than the tableau's spare rows and a warm
// result that fails its residual check or its pivot cap fall back to.
//
// A node branches on the most fractional column group first — a set of
// integer columns whose sum is integral, such as one task's replica counts —
// and on the most fractional single column only once every group sum is
// integral. Where many near-symmetric columns share one total, a bound on the
// total splits the tree evenly where a bound on one column barely moves the
// relaxation. The bound row of either kind is one lp.Workspace.Bound.
package milp

import (
	"errors"
	"math"
	"time"

	"loki/internal/lp"
)

// Problem is a linear program plus integrality marks.
//
// Groups optionally lists column groups: term lists over integer columns with
// integer coefficients, whose sum is therefore integral on every
// integer-feasible point. The search branches on the most fractional group
// sum before it branches on any single column; with no groups it branches on
// the most fractional column. The term lists are read, never copied or
// changed, so a caller that solves one model many times builds them once.
type Problem struct {
	LP      *lp.Problem
	Integer []bool // len LP.NumVars; true marks an integer-constrained variable
	Groups  [][]lp.Term
	// Root optionally hands over the LP relaxation of LP when the caller has
	// already solved it through Options.Workspace. If the workspace still
	// holds that solve's tableau (lp.Workspace.Holds) the search takes Root
	// as its root node — Root.X must still be the relaxation point — and
	// branches from the tableau; otherwise it solves the relaxation itself.
	Root *lp.Solution
}

// status reports the outcome of a solve.
type status int8

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal.
	Optimal status = iota
	// Feasible means an integer-feasible incumbent was found but a limit
	// or the gap test stopped the proof of optimality.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// unbounded means the LP relaxation is unbounded.
	unbounded
	// noSolution means a limit was hit before any incumbent was found.
	noSolution
)

// stopReason records why a search ended. The first three are deterministic
// ends; the rest are resource limits, which mark the result truncated.
type stopReason int8

const (
	stopProof      stopReason = iota // tree exhausted: incumbent optimal, or relaxation unbounded
	stopGap                          // the relative gap test closed the search
	stopInfeasible                   // no integer-feasible point exists
	stopStall                        // the armed stall cutoff fired
	stopBudget                       // MaxLPIters spent, or a subtree dropped on an LP's pivot cap
	stopNodes                        // MaxNodes explored
	stopCeiling                      // the TimeLimit ceiling, the one stop that depends on the host
)

// Options tunes the branch-and-bound search.
type Options struct {
	// TimeLimit is a wall-clock safety ceiling, the only limit whose outcome
	// depends on the host; callers size the counted limits to stop well
	// below it. Zero means no ceiling.
	TimeLimit time.Duration
	// MaxNodes bounds the number of branch-and-bound nodes. Zero means
	// 200 000.
	MaxNodes int
	// MaxLPIters bounds the simplex pivots of the whole search, the root
	// relaxation's included: once the running count reaches it, the search
	// stops before its next LP evaluation and is marked truncated. Pivots,
	// unlike milliseconds, do not depend on the host, so a search that ends
	// on this budget ends at the same node on every machine. Zero means no
	// budget.
	MaxLPIters int
	// RelGap stops the search once (bestBound-incumbent)/|incumbent| falls
	// below this value. Zero means prove optimality exactly (up to the
	// integrality tolerance intTol).
	RelGap float64
	// ObjIntegral asserts that the objective takes integer values on every
	// integer-feasible point (true for pure counting objectives such as
	// "minimize servers"), which lets the solver round every relaxation
	// bound to the nearest achievable integer and prune far more
	// aggressively.
	ObjIntegral bool
	// Incumbent optionally seeds the search with a known integer-feasible
	// point (e.g. from a greedy heuristic). It is verified before use.
	Incumbent []float64
	// WarmStarts optionally seeds the search with integer-feasible points
	// remembered from related, earlier solves (e.g. the previous adaptation
	// round's plan). Every candidate is verified against the current
	// problem — a point that violates a tightened constraint is silently
	// dropped. On proof-seeking searches (RelGap zero) the
	// best feasible candidate becomes a pruning floor from the very first
	// node; it never displaces an equally good solution found by the
	// search itself and never participates in the termination tests, so a
	// proof-terminated run returns a bit-identical result with or without
	// warm starts. Gap-tolerant searches explore exactly as a cold solve
	// would (no floor pruning — it would shift the bounds the gap tests
	// observe); there the warm start acts purely as an incumbent fallback:
	// it is returned only when it strictly beats whatever the search found
	// before stopping, which on a gap-terminated run means an improvement
	// inside the gap tolerance and on a truncated run (stall, budget, nodes)
	// can mean rescuing a search that found nothing at all.
	WarmStarts [][]float64
	// StallNodes, together with StallAfterIters, bounds unproductive tail
	// exploration on hard instances: once the search has spent
	// StallAfterIters simplex pivots, it stops as soon as StallNodes
	// consecutive nodes — and at least half of all explored nodes, so a
	// steadily improving search is never cut — have been explored without
	// improving the best known solution (search-found or warm start),
	// returning it as Feasible. Zero StallNodes disables stalling. Both
	// counts are work, not time, so a stall-cut search stops at the same
	// node on every host, and a search that reaches its deterministic end
	// within StallAfterIters pivots is unaffected.
	StallNodes int
	// StallAfterIters is the pivot count at which StallNodes arms; zero
	// arms it from the start.
	StallAfterIters int
	// Workspace optionally supplies a reusable LP workspace for the node
	// relaxations, letting a caller that solves many MILPs share one set
	// of tableau buffers. Nil makes the search use a private workspace
	// (per-node allocations are avoided either way).
	Workspace *lp.Workspace
	// LPOptions is passed through to the LP solver at every node.
	LPOptions lp.Options
}

// result is the outcome of a solve.
type result struct {
	Status    status
	X         []float64 // incumbent (valid for Optimal/Feasible)
	Objective float64   // incumbent objective in the problem's direction
	Nodes     int       // branch-and-bound nodes explored
	LPIters   int       // total simplex pivots across all nodes
	stop      stopReason

	// coldBranchings counts branchings that found no spare bound row in the
	// tableau and parked both children for cold solves, and warmRetries warm
	// child evaluations handed back to a cold solve (tests read both to see
	// those paths run).
	coldBranchings int
	warmRetries    int
}

// Truncated reports that a resource limit, not a proof, gap test or
// infeasibility, ended the search: its result is not optimal within the gap,
// and callers that memoize solutions treat it as provisional.
func (r *result) Truncated() bool { return r.stop >= stopStall }

// HitCeiling reports that the TimeLimit ceiling, not counted work, ended it.
func (r *result) HitCeiling() bool { return r.stop == stopCeiling }

// errBadProblem reports a malformed problem.
var errBadProblem = errors.New("milp: malformed problem")

// node is one branch-and-bound subproblem, defined by a chain of bound
// overrides hanging off the root relaxation. A branch names a column j as j
// and column group g as NumVars+g.
type node struct {
	parent *node
	branch int     // column or group the parent branched on (-1 at root)
	lo, hi float64 // bound override for the branch's value
	// bound is the node's LP relaxation objective (maximize-normalized) once
	// it has been evaluated, and its parent's until then.
	bound float64
	frac  int   // column or group to branch on next (evaluated, fractional nodes)
	order int64 // LIFO tie-break: newer nodes first → diving behaviour
}

// nodeHeap is a max-heap on relaxation bound with LIFO tie-breaking so the
// search dives for early incumbents while still expanding best-bound first.
// push and pop sift with the comparisons container/heap makes, so nodes come
// off in the order a container/heap queue would give them.
type nodeHeap []*node

func (h nodeHeap) less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	return h[i].order > h[j].order
}

func (h *nodeHeap) push(nd *node) {
	*h = append(*h, nd)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *nodeHeap) pop() *node {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.less(j2, j) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	nd := s[n]
	s[n] = nil
	*h = s[:n]
	return nd
}

// warmMaxIter caps the dual simplex pivots of one warm child evaluation. A
// child that needs more is solved cold instead: a warm re-optimisation that
// runs long has lost its way in a degenerate stretch, and the search's limits
// are only checked between LPs. A single-column bound takes a few hundred
// pivots at most on the planner's models; a group bound can take thousands.
const warmMaxIter = 2000

// SolveWithOptions runs branch and bound.
func SolveWithOptions(p *Problem, opt Options) (*result, error) {
	return solve(p, opt, warmMaxIter)
}

// solve runs branch and bound with warm child evaluations capped at warmIters
// pivots (or LPOptions.MaxIter, when that is lower).
func solve(p *Problem, opt Options, warmIters int) (*result, error) {
	if p.LP == nil {
		return nil, errBadProblem
	}
	if p.Integer != nil && len(p.Integer) != p.LP.NumVars {
		return nil, errBadProblem
	}
	for _, g := range p.Groups {
		for _, tm := range g {
			if tm.Var < 0 || tm.Var >= p.LP.NumVars || p.Integer == nil || !p.Integer[tm.Var] || tm.Coef != math.Trunc(tm.Coef) {
				return nil, errBadProblem
			}
		}
	}
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200_000
	}
	var deadline time.Time
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}

	s := &search{
		p:       p,
		lpOpt:   opt.LPOptions,
		warmOpt: opt.LPOptions,
		ws:      opt.Workspace,
		// Normalize to maximization internally.
		sign: 1.0,
	}
	if s.warmOpt.MaxIter == 0 || s.warmOpt.MaxIter > warmIters {
		s.warmOpt.MaxIter = warmIters
	}
	if !p.LP.Maximize {
		s.sign = -1.0
	}
	if s.ws == nil {
		s.ws = &lp.Workspace{}
	}
	// Shared node model: the base constraint rows are copied once and every
	// node appends its branching-bound rows behind them, truncating back
	// after the relaxation solve. This replaces the per-node Problem.Clone
	// (and the per-node tableau allocation, via the workspace) that
	// dominated the solver's allocation profile.
	s.cons = append(make([]lp.Constraint, 0, len(p.LP.Cons)+16), p.LP.Cons...)
	s.nodeProb = lp.Problem{NumVars: p.LP.NumVars, Maximize: p.LP.Maximize, Obj: p.LP.Obj}

	res := &result{Status: noSolution}

	incumbentVal := math.Inf(-1) // maximize-normalized incumbent objective
	var incumbentX []float64
	if opt.Incumbent != nil {
		if v, ok := s.checkFeasible(opt.Incumbent); ok {
			incumbentVal = v
			incumbentX = append([]float64(nil), opt.Incumbent...)
		}
	}

	// Warm starts prune but never displace an equally good search result.
	warmVal := math.Inf(-1)
	var warmX []float64
	for _, cand := range opt.WarmStarts {
		if v, ok := s.checkFeasible(cand); ok && v > warmVal {
			warmVal = v
			warmX = append([]float64(nil), cand...)
		}
	}
	pruneFloor := math.Inf(-1)
	if warmX != nil && opt.RelGap == 0 {
		// Floor pruning applies only to proof-seeking searches, and
		// strictly below the warm value: nodes whose bound ties the warm
		// start stay open so the search can find its own equally good
		// incumbent, keeping proof-terminated runs bit-identical to a cold
		// solve. Gap-tolerant searches skip the floor entirely — pruning
		// would shift which bounds the gap tests observe and so change
		// where a cold-identical search stops — and use the warm start
		// only as an end-of-search incumbent fallback.
		pruneFloor = warmVal - 1e-7*math.Max(1, math.Abs(warmVal))
	}

	// The root relaxation: the caller's, when the workspace still holds its
	// tableau, so that the first branching can start from it.
	root := &node{branch: -1}
	sol := p.Root
	if !s.ws.Holds(sol) {
		var err error
		if sol, err = s.solveNode(root); err != nil {
			return nil, err
		}
	}
	res.LPIters += sol.Iters
	switch sol.Status {
	case lp.Infeasible:
		// A warm start or seed that passed the feasibility check while the
		// relaxation is infeasible would be numerically contradictory;
		// trust the relaxation.
		return &result{Status: Infeasible, Nodes: 1, LPIters: res.LPIters, stop: stopInfeasible}, nil
	case lp.Unbounded:
		return &result{Status: unbounded, Nodes: 1, LPIters: res.LPIters}, nil
	case lp.IterLimit:
		return &result{Status: noSolution, Nodes: 1, LPIters: res.LPIters, stop: stopBudget}, nil
	}
	root.bound = s.sign * sol.Objective

	var order int64
	h := nodeHeap{root}
	nodes := 0
	// stop is why the search ended: stopProof until a limit or the gap test
	// ends it early. dropped records a subtree dropped on an LP's pivot cap,
	// which turns an exhausted tree into a budget stop.
	stop := stopProof
	dropped := false

	// Stall tracking: bestKnown is the best returnable value (search
	// incumbent or warm start); lastImprove the node count when it last
	// rose.
	bestKnown := math.Max(incumbentVal, warmVal)
	lastImprove := 0

	// outOfBudget is consulted before every LP evaluation — a node is one LP
	// evaluation, whether a cold solve of a popped node or a warm
	// re-optimisation of a child — and records which limit, if any, says
	// stop. The counted limits are checked before the clock, so a search
	// that reaches one of them stops for the same reason on every host.
	outOfBudget := func() bool {
		switch {
		case nodes >= maxNodes:
			stop = stopNodes
		case opt.MaxLPIters > 0 && res.LPIters >= opt.MaxLPIters:
			stop = stopBudget
		// Stall cutoff: past its arming point, a search that has explored
		// StallNodes nodes without improving its best solution — and whose
		// plateau dominates its whole history (≥ half of all explored
		// nodes, so steadily-improving searches are never cut) — is
		// spending the rest of its budget on bound-tightening only; stop
		// it. With no incumbent at all the same plateau means the step is
		// (near-)integer-infeasible, and stopping lets the caller fall
		// through to its next regime instead of spending the whole budget.
		case opt.StallNodes > 0 && res.LPIters >= opt.StallAfterIters &&
			nodes-lastImprove >= opt.StallNodes && nodes-lastImprove >= nodes/2:
			stop = stopStall
		case !deadline.IsZero() && time.Now().After(deadline):
			stop = stopCeiling
		default:
			return false
		}
		return true
	}
	// prunable reports whether a node with the given bound cannot improve
	// the incumbent enough to matter: by bound (or the warm-start floor), or
	// within the relative gap.
	prunable := func(bound float64) bool {
		if bound <= math.Max(incumbentVal, pruneFloor)+1e-9 {
			return true
		}
		if opt.RelGap > 0 && incumbentX != nil {
			denom := math.Max(math.Abs(incumbentVal), 1e-12)
			return (bound-incumbentVal)/denom <= opt.RelGap
		}
		return false
	}
	// settle turns a solved relaxation into the node's bound and reports
	// whether the node stays open; an integer-feasible point that beats the
	// incumbent is taken on the way.
	settle := func(nd *node, objective float64, x []float64) bool {
		bound := s.sign * objective
		if opt.ObjIntegral {
			// On integer points the objective is integral, so the best
			// achievable value below this relaxation bound is its floor.
			bound = math.Floor(bound + 1e-6)
		}
		nd.bound = bound
		if bound <= math.Max(incumbentVal, pruneFloor)+1e-9 {
			return false
		}
		if nd.frac = s.branchOn(x); nd.frac >= 0 {
			return true
		}
		if bound > incumbentVal {
			// The incumbent is valued at the point handed back — integer
			// variables snapped — not at the relaxation's, which can sit an
			// ulp away and would let an identical warm start displace it.
			xr := roundIntegral(x, p.Integer)
			if val := s.objective(xr); val > incumbentVal {
				incumbentVal, incumbentX = val, xr
				if incumbentVal > bestKnown {
					bestKnown = incumbentVal
					lastImprove = nodes
				}
			}
		}
		return false
	}
	push := func(nd *node) {
		order++
		nd.order = order
		h.push(nd)
	}

search:
	for len(h) > 0 {
		if outOfBudget() {
			break
		}
		nd := h.pop()
		if prunable(nd.bound) {
			continue // pruned by bound, by the warm-start floor, or within the gap
		}
		nodes++

		// A popped node is solved cold (the root, popped first, already is).
		if nd != root {
			var err error
			if sol, err = s.solveNode(nd); err != nil {
				return nil, err
			}
			res.LPIters += sol.Iters
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// A child cannot be unbounded if the root was bounded, but be
			// conservative.
			return &result{Status: unbounded, Nodes: nodes, LPIters: res.LPIters}, nil
		case lp.IterLimit:
			// The subtree is dropped unexplored: a resource limit, not a proof.
			dropped = true
			continue
		}
		if !settle(nd, sol.Objective, sol.X) {
			continue
		}
		x := sol.X

		// Plunge: branch on the current node, evaluate both children from
		// its tableau, keep one and park the other, until the path closes.
		for {
			// Early stop on relative gap.
			if opt.RelGap > 0 && incumbentX != nil {
				top := nd.bound
				if len(h) > 0 && h[0].bound > top {
					top = h[0].bound
				}
				denom := math.Max(math.Abs(incumbentVal), 1e-12)
				if (top-incumbentVal)/denom <= opt.RelGap {
					stop = stopGap
					break search
				}
				if prunable(nd.bound) {
					break // this path is within the gap; others are not
				}
			}

			lo := math.Floor(s.value(x, nd.frac))
			up := &node{parent: nd, branch: nd.frac, lo: lo + 1, hi: math.Inf(1), bound: nd.bound}
			down := &node{parent: nd, branch: nd.frac, lo: math.Inf(-1), hi: lo, bound: nd.bound}
			if !s.ws.Warm() {
				// No bound row left in the tableau: park both children under
				// the parent's bound; popping one solves it cold, which
				// rebuilds the tableau.
				res.coldBranchings++
				push(down)
				push(up) // explore the round-up branch first (dives toward capacity)
				break
			}

			// The round-up child goes first: it dives toward capacity, and
			// an incumbent it finds may close the round-down child unsolved.
			// It is evaluated on the retained tableau with the parent saved
			// to the side, then the two swap and the round-down child
			// overwrites the parent; afterwards the retained tableau is the
			// round-down child's and the side one the round-up child's.
			s.ws.Fork()
			var open [2]*node
			for k, child := range [2]*node{up, down} {
				if k == 1 {
					s.ws.Swap()
					if prunable(nd.bound) {
						break
					}
				}
				if outOfBudget() {
					// Keep what is unevaluated on the heap so the reported
					// bound still covers it.
					if open[0] != nil {
						push(open[0])
					}
					if k == 0 {
						push(up)
					}
					push(down)
					break search
				}
				nodes++
				sense, val := lp.GE, child.lo
				if k == 1 {
					sense, val = lp.LE, child.hi
				}
				csol, ok := s.ws.Bound(s.branchTerms(child.branch), sense, val, s.warmOpt)
				res.LPIters += csol.Iters
				switch {
				case !ok || csol.Status == lp.IterLimit || (csol.Status == lp.Optimal && !s.satisfies(csol.X, child)):
					// The warm path gave no usable answer (pivot cap, or a
					// point that drifted off the original rows): let a cold
					// solve have the final word.
					res.warmRetries++
					push(child)
				case csol.Status == lp.Optimal && settle(child, csol.Objective, csol.X):
					open[k] = child
					s.childX[k] = append(s.childX[k][:0], csol.X...)
				}
			}

			// Continue with the child of better bound — best-bound order, as
			// far as a plunge can keep it — and with the round-up child on a
			// tie, which dives toward capacity. Choosing by bound also keeps
			// the path independent of the warm-start floor: a child the floor
			// closes always has the worse bound.
			k := 0
			if open[0] == nil || (open[1] != nil && open[1].bound > open[0].bound) {
				k = 1
			}
			if open[k] == nil {
				break
			}
			if open[1-k] != nil {
				push(open[1-k])
			}
			if k == 0 {
				s.ws.Swap()
			}
			nd, x = open[k], s.childX[k]
		}
	}

	// A warm start strictly better than anything the search found is the
	// returnable incumbent; ties prefer the search's own solution so that
	// proof-terminated runs match a cold solve bit for bit. (A search that
	// runs to proof always rediscovers a value at least as good as the warm
	// start — its subtree is never pruned — so on proof-terminated runs
	// this replacement never fires; it surfaces from truncated runs and,
	// within the gap tolerance, from gap-terminated ones.)
	if warmX != nil && (incumbentX == nil || warmVal > incumbentVal) {
		incumbentX = warmX
		incumbentVal = warmVal
	}

	res.Nodes = nodes
	if stop == stopProof && dropped {
		stop = stopBudget
	}
	res.stop = stop
	if incumbentX == nil {
		if stop == stopProof {
			res.Status, res.stop = Infeasible, stopInfeasible
		} else {
			res.Status = noSolution
		}
		return res, nil
	}
	res.X = incumbentX
	res.Objective = s.sign * incumbentVal
	if stop == stopProof {
		res.Status = Optimal
	} else {
		res.Status = Feasible
	}
	return res, nil
}

// intTol is the integrality tolerance: a relaxation value within it of an
// integer counts as integral.
const intTol = 1e-6

type search struct {
	p       *Problem
	lpOpt   lp.Options
	warmOpt lp.Options // lpOpt with the warm child evaluations' pivot cap
	sign    float64    // +1 maximize, -1 minimize (normalizes bounds)

	// Shared node model: cons holds the base rows once, each node appends
	// its bound rows behind them and truncates back after the solve, and
	// ws recycles the tableau buffers — no per-node model or tableau
	// allocations.
	ws       *lp.Workspace
	cons     []lp.Constraint
	nodeProb lp.Problem
	bvars    []varBound
	terms    []lp.Term
	unit     [1]lp.Term // a single column's warm bound row
	// childX keeps the relaxation points of the two children of a branching
	// (the workspace's own buffer is overwritten by the next LP).
	childX [2][]float64
}

// varBound is one collapsed branching interval lo ≤ value ≤ hi of a column
// or group v (numbered as node.branch).
type varBound struct {
	v      int
	lo, hi float64
}

// branchTerms returns the bound row's terms for branch b: the group's own
// term list, or the column alone in a scratch slice valid until the next call.
func (s *search) branchTerms(b int) []lp.Term {
	if n := s.p.LP.NumVars; b >= n {
		return s.p.Groups[b-n]
	}
	s.unit[0] = lp.Term{Var: b, Coef: 1}
	return s.unit[:]
}

// value is the value at x of column or group b.
func (s *search) value(x []float64, b int) float64 {
	n := s.p.LP.NumVars
	if b < n {
		return x[b]
	}
	v := 0.0
	for _, tm := range s.p.Groups[b-n] {
		v += tm.Coef * x[tm.Var]
	}
	return v
}

// solveNode materializes the node's bound chain as extra rows on the shared
// model and solves the relaxation. Bound rows are emitted in ascending branch
// order — columns, then groups — with lower bounds first, so the row layout
// — and therefore the pivot sequence — is deterministic for a given node.
func (s *search) solveNode(nd *node) (*lp.Solution, error) {
	// Collapse the bound chain: the tightest interval per column or group
	// wins.
	s.bvars = s.bvars[:0]
	for n := nd; n != nil && n.branch >= 0; n = n.parent {
		at := -1
		for i := range s.bvars {
			if s.bvars[i].v == n.branch {
				at = i
				break
			}
		}
		if at < 0 {
			at = len(s.bvars)
			s.bvars = append(s.bvars, varBound{v: n.branch, lo: n.lo, hi: n.hi})
			for at > 0 && s.bvars[at-1].v > s.bvars[at].v {
				s.bvars[at-1], s.bvars[at] = s.bvars[at], s.bvars[at-1]
				at--
			}
			continue
		}
		if n.lo > s.bvars[at].lo {
			s.bvars[at].lo = n.lo
		}
		if n.hi < s.bvars[at].hi {
			s.bvars[at].hi = n.hi
		}
	}

	s.cons = s.cons[:len(s.p.LP.Cons)]
	if need := 2 * len(s.bvars); cap(s.terms) < need {
		s.terms = make([]lp.Term, 0, need+16)
	}
	s.terms = s.terms[:0]
	for _, b := range s.bvars {
		if !math.IsInf(b.lo, -1) {
			s.cons = append(s.cons, lp.Constraint{Terms: s.rowTerms(b.v), Sense: lp.GE, RHS: b.lo})
		}
	}
	for _, b := range s.bvars {
		if !math.IsInf(b.hi, 1) {
			s.cons = append(s.cons, lp.Constraint{Terms: s.rowTerms(b.v), Sense: lp.LE, RHS: b.hi})
		}
	}
	s.nodeProb.Cons = s.cons
	return lp.SolveWS(&s.nodeProb, s.lpOpt, s.ws)
}

// rowTerms returns a cold bound row's terms for branch b: the group's own
// term list, or the column alone in the next slot of the scratch terms
// buffer, which solveNode has sized for every row.
func (s *search) rowTerms(b int) []lp.Term {
	if n := s.p.LP.NumVars; b >= n {
		return s.p.Groups[b-n]
	}
	s.terms = append(s.terms, lp.Term{Var: b, Coef: 1})
	return s.terms[len(s.terms)-1:]
}

// branchOn returns what to branch on at relaxation point x: the column group
// whose sum is farthest from integral, or when every group sum is integral
// the integer column farthest from integral (see node.branch for the
// numbering), or -1 if all are integral within tolerance.
func (s *search) branchOn(x []float64) int {
	best, bestDist := -1, intTol
	n := s.p.LP.NumVars
	for g := range s.p.Groups {
		if d := fracDist(s.value(x, n+g)); d > bestDist {
			bestDist = d
			best = n + g
		}
	}
	if best >= 0 {
		return best
	}
	for j, isInt := range s.p.Integer {
		if !isInt {
			continue
		}
		if d := fracDist(x[j]); d > bestDist {
			bestDist = d
			best = j
		}
	}
	return best
}

// fracDist is v's distance from the nearest integer.
func fracDist(v float64) float64 {
	f := v - math.Floor(v)
	return math.Min(f, 1-f)
}

// checkFeasible verifies a candidate point against all constraints and
// integrality, returning its maximize-normalized objective.
func (s *search) checkFeasible(x []float64) (float64, bool) {
	if len(x) != s.p.LP.NumVars {
		return 0, false
	}
	const tol = 1e-6
	for j, v := range x {
		if v < -tol {
			return 0, false
		}
		if s.p.Integer != nil && s.p.Integer[j] {
			if math.Abs(v-math.Round(v)) > tol {
				return 0, false
			}
		}
	}
	if !s.rowsHold(x) {
		return 0, false
	}
	return s.objective(x), true
}

// objective returns the maximize-normalized objective of x.
func (s *search) objective(x []float64) float64 {
	obj := 0.0
	for j, c := range s.p.LP.Obj {
		obj += c * x[j]
	}
	return s.sign * obj
}

// rowsHold reports whether x satisfies every row of the problem to 1e-6.
func (s *search) rowsHold(x []float64) bool {
	const tol = 1e-6
	for _, c := range s.p.LP.Cons {
		lhs := 0.0
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Var]
		}
		switch c.Sense {
		case lp.LE:
			if lhs > c.RHS+tol {
				return false
			}
		case lp.GE:
			if lhs < c.RHS-tol {
				return false
			}
		case lp.EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// satisfies is the residual check on a warm re-optimisation: the point must
// hold on the original rows and on the node's whole bound chain, none of
// which the re-optimised tableau has seen in their original form since the
// last cold solve.
func (s *search) satisfies(x []float64, nd *node) bool {
	const tol = 1e-6
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for n := nd; n.branch >= 0; n = n.parent {
		if v := s.value(x, n.branch); v < n.lo-tol || v > n.hi+tol {
			return false
		}
	}
	return s.rowsHold(x)
}

// roundIntegral snaps near-integral values exactly onto integers so
// downstream consumers (replica counts) see clean numbers.
func roundIntegral(x []float64, isInt []bool) []float64 {
	out := append([]float64(nil), x...)
	for j := range out {
		if isInt != nil && isInt[j] {
			out[j] = math.Round(out[j])
		}
	}
	return out
}
