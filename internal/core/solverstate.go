package core

import (
	"sync"

	"loki/internal/lp"
)

// solverState is the Allocator's reusable solving machinery, shared between
// an allocator and every Capped view derived from it (the views differ only
// in the per-class server bounds, which are RHS values). It holds one step
// model per optimization step, built the first time the step is solved and
// from then on patched in place for each solve's demand and class counts;
// the last solution per step, as a warm start for the next adaptation
// round; and the LP tableau buffers, recycled across every solve.
//
// All access is serialized by mu, which makes an Allocator (and its capped
// views) safe for concurrent use — and is what lets a solve rewrite the
// shared model's coefficients; the multi-tenant arbiter's parallel
// per-tenant solves rely on tenants owning distinct allocators, so the lock
// is uncontended on the hot path.
type solverState struct {
	mu     sync.Mutex
	ws     lp.Workspace
	models [stepHardwareSat + 1]*stepModel // by stepKind; nil until first use
	lastX  map[stepKind][]float64

	milpSolves  int
	nodes       int
	lpIters     int
	truncated   int
	ceilings    int
	modelBuilds int
	modelReuses int
	greedyPlans int
}

func newSolverState() *solverState {
	return &solverState{lastX: map[stepKind][]float64{}}
}

// SolverPerf aggregates the allocator's solver-level effort counters.
type SolverPerf struct {
	// MILPSolves counts branch-and-bound invocations, nodes the nodes they
	// explored, lpIters their simplex pivots (root relaxations included),
	// truncated those a resource limit (stall cutoff, pivot or node budget,
	// wall-clock ceiling) stopped before a deterministic end, and ceilings
	// those the wall-clock ceiling stopped — the only stops that can
	// depend on the host, zero whenever the counted budgets are calibrated.
	MILPSolves, nodes, lpIters, truncated, ceilings int
	// ModelBuilds counts step-model constructions — in steady state one per
	// optimization step the allocator has ever solved — and ModelReuses the
	// solves and greedy passes that found their step's model already built.
	ModelBuilds, ModelReuses int
	// greedyPlans counts plans served by the greedy pass alone (no branch
	// and bound at all) through GreedyAllocate.
	greedyPlans int
}

// Perf returns the allocator's accumulated solver effort counters.
func (a *Allocator) Perf() SolverPerf {
	st := a.state
	st.mu.Lock()
	defer st.mu.Unlock()
	return SolverPerf{
		MILPSolves:  st.milpSolves,
		nodes:       st.nodes,
		lpIters:     st.lpIters,
		truncated:   st.truncated,
		ceilings:    st.ceilings,
		ModelBuilds: st.modelBuilds,
		ModelReuses: st.modelReuses,
		greedyPlans: st.greedyPlans,
	}
}

// modelFor returns the step's model, building it on first use. The model's
// demand coefficients and class budgets are whatever the last solve left;
// callers that hand it to a solver call set first. Callers hold st.mu.
func (a *Allocator) modelFor(step stepKind) *stepModel {
	st := a.state
	if m := st.models[step]; m != nil {
		st.modelReuses++
		return m
	}
	m := a.buildStepModel(step)
	st.modelBuilds++
	st.models[step] = m
	return m
}
