package experiments

import (
	"fmt"
	"strings"
	"time"

	"loki/internal/core"
	"loki/internal/profiles"
	"loki/internal/stack"
)

// runtimeResult reproduces §6.5: the wall-clock cost of one Resource
// Manager MILP solve and one Load Balancer MostAccurateFirst run.
type runtimeResult struct {
	milpMillis       []float64 // per demand level
	milpMeanMillis   float64
	lbMicros         []float64
	lbMeanMicros     float64
	paths            int
	vars             int
	workers          int
	demandsEvaluated []float64
}

// Runtime measures both components on the traffic-analysis pipeline
// (paper: MILP ≈ 500 ms with Gurobi, Load Balancer ≈ 0.15 ms).
func Runtime(servers int, sloSec float64) (*runtimeResult, error) {
	g := profiles.TrafficTree()
	// Measure the full optimizer, not the stall-truncated serving variant:
	// the paper's §6.5 numbers are per-solve costs.
	pool := RunConfig{Servers: servers, solveTimeLimit: 2 * time.Second, disableStall: true}.pool()
	alloc, err := stack.New(pool).Allocator(g, sloSec)
	if err != nil {
		return nil, err
	}

	res := &runtimeResult{workers: servers}
	demands := []float64{100, 300, 500, 700, 900, 1100, 1300}
	var lastPlan *core.Plan
	for _, d := range demands {
		t0 := time.Now()
		plan, err := alloc.Allocate(d)
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		res.milpMillis = append(res.milpMillis, ms)
		res.milpMeanMillis += ms / float64(len(demands))
		res.demandsEvaluated = append(res.demandsEvaluated, d)
		res.paths = plan.SolveStats.Paths
		res.vars = plan.SolveStats.Vars
		lastPlan = plan
	}

	specs := core.ExpandPlan(lastPlan)
	const reps = 200
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		core.MostAccurateFirst(g, specs, 900, alloc.Meta.MultFactor)
		us := float64(time.Since(t0).Nanoseconds()) / 1000
		if i < 10 {
			res.lbMicros = append(res.lbMicros, us)
		}
		res.lbMeanMicros += us / reps
	}
	return res, nil
}

// FormatRuntime renders the §6.5 table.
func FormatRuntime(r *runtimeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resource Manager MILP (paths=%d vars=%d cluster=%d):\n", r.paths, r.vars, r.workers)
	for i, d := range r.demandsEvaluated {
		fmt.Fprintf(&b, "  demand %6.0f qps : %8.1f ms\n", d, r.milpMillis[i])
	}
	fmt.Fprintf(&b, "  mean            : %8.1f ms   (paper, Gurobi: ≈500 ms)\n\n", r.milpMeanMillis)
	fmt.Fprintf(&b, "Load Balancer MostAccurateFirst:\n")
	fmt.Fprintf(&b, "  mean            : %8.1f µs   (paper: ≈150 µs)\n", r.lbMeanMicros)
	return b.String()
}
