// Package core implements Loki's Controller: the Resource Manager (§4),
// which periodically solves MILPs for hardware and accuracy scaling, the
// Load Balancer (§5) with its MostAccurateFirst routing algorithm and
// backup tables for opportunistic rerouting, and the Metadata Store that
// feeds them both. This package is the paper's primary contribution.
package core

import (
	"fmt"
	"sort"
	"strings"

	"loki/internal/pipeline"
)

// Mode records which scaling regime produced a plan.
type Mode int8

// Scaling regimes (§4).
const (
	// HardwareScaling: demand is served entirely with the most accurate
	// variants, minimizing the number of active servers (step 1).
	HardwareScaling Mode = iota
	// AccuracyScaling: the whole cluster is in use and accuracy is
	// sacrificed just enough to meet demand (step 2).
	AccuracyScaling
	// Saturated: even the least accurate configuration cannot serve the
	// demand; the plan serves the largest possible fraction and the rest
	// must be dropped at runtime (the regime beyond Figure 1's phase 3).
	Saturated
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case HardwareScaling:
		return "hardware-scaling"
	case AccuracyScaling:
		return "accuracy-scaling"
	case Saturated:
		return "saturated"
	default:
		return "unknown"
	}
}

// Assignment is one entry of a resource allocation plan: how many replicas
// of a given model variant to host, and the maximum batch size each replica
// may form (x(i,k) and y(i,k) in Table 1).
type Assignment struct {
	Task     pipeline.TaskID
	Variant  int
	MaxBatch int
	Replicas int

	// Class is the hardware class hosting these replicas (index into the
	// cluster's class set; 0 on a homogeneous cluster) and ClassName its
	// registered name. Latency and throughput below are profiled on this
	// class, so the same variant on a faster class is a distinct assignment.
	Class     int
	ClassName string

	// Profiled characteristics of one replica under this configuration,
	// copied from the Metadata Store at allocation time.
	QPS        float64 // throughput of one replica
	LatencySec float64 // batch processing latency
	Accuracy   float64 // normalized single-model accuracy

	// BudgetSec is the per-task latency budget for requests served by
	// these replicas: twice the batch latency, since a query may wait in
	// the queue for as long as one batch execution (§4.1's SLO/2 rule).
	BudgetSec float64
}

// PathFlow is the fraction of incoming demand the allocator expects to flow
// through one root-to-sink configuration path.
type PathFlow struct {
	Tasks    []pipeline.TaskID
	Variants []int
	Batches  []int
	Fraction float64 // of the demand toward this path's sink
	Accuracy float64 // end-to-end Â(p)
}

// Plan is a complete resource allocation (§2.2.1): variant choice,
// replication factor, and max batch size per hosted variant, plus the
// expected path flows that realize it.
type Plan struct {
	Mode        Mode
	Demand      float64 // demand (QPS) the plan was sized for
	ServersUsed int
	// ServersByClass is ServersUsed broken down per hardware class (indexed
	// like the cluster's class set). The multi-tenant arbiter splits these
	// vectors, not scalar counts, when the pool is contended.
	ServersByClass []int
	// CostPerHour is the plan's dollar rate: active replicas weighted by
	// their class's CostPerHour. Zero on unpriced fleets.
	CostPerHour float64
	// ServedFraction is 1 except in Saturated mode, where it is the
	// fraction of demand the plan can serve.
	ServedFraction float64
	// ExpectedAccuracy is the demand-weighted mean end-to-end accuracy over
	// sinks, assuming flows follow PathFlows.
	ExpectedAccuracy float64
	Assignments      []Assignment
	PathFlows        []PathFlow
	// SolveStats records how the MILP solve went.
	SolveStats SolveStats
}

// SolveStats captures optimizer effort: lokibench's plan-* workloads report
// it, and the tenant plan cache reads Truncated.
type SolveStats struct {
	Step        int // 1 = hardware scaling, 2 = accuracy scaling, 3 = saturation
	Nodes       int
	LPIters     int
	Vars        int
	Constraints int
	Proven      bool // solved to proven optimality
	// Truncated marks a plan a resource limit (stall cutoff, pivot or node
	// budget, wall-clock ceiling) had a hand in: its own search was cut, or
	// an earlier step's was cut before its first integer point and the
	// allocator fell through to this one. Such a plan is not optimal within
	// the gap; the tenant plan cache treats it as provisional and retries
	// it at fine demand granularity.
	Truncated bool
	// Greedy marks a plan produced by the greedy first pass alone — feasible
	// by construction but never proven optimal. Only the arbiter's
	// greedy-replace budget emits these; plans that went through the branch
	// and bound (even greedy-seeded ones) leave it false.
	Greedy bool
}

// idlePlan is the plan that serves nothing: no replicas, saturated at served
// fraction 0 for the demand it was asked for. The allocator returns it when
// even the saturation search finds no point, and the arbiter gives it to a
// tenant whose grant cannot keep its tasks warm.
func idlePlan(demand float64) *Plan {
	return &Plan{Mode: Saturated, Demand: demand}
}

// ClassUsage returns the replicas the plan hosts on each hardware class,
// keyed by class name, by summing the assignments (hand-built plans without
// class labels report under "default").
func (p *Plan) ClassUsage() map[string]int {
	out := map[string]int{}
	for _, a := range p.Assignments {
		name := a.ClassName
		if name == "" {
			name = "default"
		}
		out[name] += a.Replicas
	}
	return out
}

// String renders a human-readable summary. Hardware-class detail (the
// per-assignment class and the plan's dollar rate) appears only on
// heterogeneous or priced fleets, keeping homogeneous zero-cost output
// identical to the pre-class format.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan[%s] demand=%.1f served=%.0f%% servers=%d acc=%.4f",
		p.Mode, p.Demand, 100*p.ServedFraction, p.ServersUsed, p.ExpectedAccuracy)
	if p.CostPerHour > 0 {
		fmt.Fprintf(&b, " cost=%.2f/h", p.CostPerHour)
	}
	b.WriteString("\n")
	as := append([]Assignment(nil), p.Assignments...)
	sort.Slice(as, func(i, j int) bool {
		if as[i].Task != as[j].Task {
			return as[i].Task < as[j].Task
		}
		if as[i].Variant != as[j].Variant {
			return as[i].Variant < as[j].Variant
		}
		return as[i].Class < as[j].Class
	})
	for _, a := range as {
		fmt.Fprintf(&b, "  task %d variant %d batch %-3d × %-3d (%.1f qps/replica, acc %.3f",
			a.Task, a.Variant, a.MaxBatch, a.Replicas, a.QPS, a.Accuracy)
		if a.ClassName != "" && a.ClassName != "default" {
			fmt.Fprintf(&b, ", class %s", a.ClassName)
		}
		b.WriteString(")\n")
	}
	return b.String()
}
