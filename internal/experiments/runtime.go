package experiments

import (
	"fmt"
	"strings"
	"time"

	"loki/internal/core"
	"loki/internal/profiles"
	"loki/internal/stack"
)

// RuntimeResult reproduces §6.5: the wall-clock cost of one Resource
// Manager MILP solve and one Load Balancer MostAccurateFirst run.
type RuntimeResult struct {
	MILPMillis       []float64 // per demand level
	MILPMeanMillis   float64
	LBMicros         []float64
	LBMeanMicros     float64
	Paths            int
	Vars             int
	Workers          int
	DemandsEvaluated []float64
}

// Runtime measures both components on the traffic-analysis pipeline
// (paper: MILP ≈ 500 ms with Gurobi, Load Balancer ≈ 0.15 ms).
func Runtime(servers int, sloSec float64) (*RuntimeResult, error) {
	g := profiles.TrafficTree()
	// Measure the full optimizer, not the stall-truncated serving variant:
	// the paper's §6.5 numbers are per-solve costs.
	pool := RunConfig{Servers: servers, SolveTimeLimit: 2 * time.Second, DisableStall: true}.pool()
	alloc, err := stack.New(pool).Allocator(g, sloSec)
	if err != nil {
		return nil, err
	}

	res := &RuntimeResult{Workers: servers}
	demands := []float64{100, 300, 500, 700, 900, 1100, 1300}
	var lastPlan *core.Plan
	for _, d := range demands {
		t0 := time.Now()
		plan, err := alloc.Allocate(d)
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		res.MILPMillis = append(res.MILPMillis, ms)
		res.MILPMeanMillis += ms / float64(len(demands))
		res.DemandsEvaluated = append(res.DemandsEvaluated, d)
		res.Paths = plan.SolveStats.Paths
		res.Vars = plan.SolveStats.Vars
		lastPlan = plan
	}

	specs := core.ExpandPlan(lastPlan)
	const reps = 200
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		core.MostAccurateFirst(g, specs, 900, alloc.Meta.MultFactor)
		us := float64(time.Since(t0).Nanoseconds()) / 1000
		if i < 10 {
			res.LBMicros = append(res.LBMicros, us)
		}
		res.LBMeanMicros += us / reps
	}
	return res, nil
}

// FormatRuntime renders the §6.5 table.
func FormatRuntime(r *RuntimeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resource Manager MILP (paths=%d vars=%d cluster=%d):\n", r.Paths, r.Vars, r.Workers)
	for i, d := range r.DemandsEvaluated {
		fmt.Fprintf(&b, "  demand %6.0f qps : %8.1f ms\n", d, r.MILPMillis[i])
	}
	fmt.Fprintf(&b, "  mean            : %8.1f ms   (paper, Gurobi: ≈500 ms)\n\n", r.MILPMeanMillis)
	fmt.Fprintf(&b, "Load Balancer MostAccurateFirst:\n")
	fmt.Fprintf(&b, "  mean            : %8.1f µs   (paper: ≈150 µs)\n", r.LBMeanMicros)
	return b.String()
}
