// Package baselines implements the two comparison systems of §6.1 as
// core.Planner implementations, so every approach runs on the identical
// cluster substrate and differs only in how it allocates resources:
//
//   - InferLine-like: pipeline-aware hardware scaling with a fixed,
//     client-specified model variant per task (we use the most accurate, as
//     the paper's experiments do). It can add and remove replicas but never
//     switches variants, so once the cluster saturates, demand goes unmet.
//
//   - Proteus-like: accuracy scaling applied to each task independently.
//     It is pipeline-agnostic: the cluster is statically partitioned across
//     tasks, every server stays active (no hardware scaling), each task's
//     demand is estimated from the task's own recent arrivals without
//     modeling upstream multiplicative factors, and each task receives an
//     equal share of the latency SLO rather than a jointly optimized split.
package baselines

import (
	"fmt"
	"math"

	"loki/internal/core"
	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// inferLine performs hardware scaling only (§6.1 baseline 1). It reuses
// Loki's step-1 MILP restricted to the most accurate variants; when even the
// full cluster cannot serve the demand at fixed accuracy, it keeps the
// biggest feasible deployment — exactly the regime where its SLO violations
// explode in Figures 5 and 6.
type inferLine struct {
	alloc *core.Allocator
}

// NewInferLine builds the baseline planner.
func NewInferLine(meta *core.MetadataStore, opts core.AllocatorOptions) (*inferLine, error) {
	// Restricting to the most accurate variants is done by the hardware
	// step itself; MinPathAccuracy 0 keeps the path set unrestricted.
	a, err := core.NewAllocator(meta, opts)
	if err != nil {
		return nil, err
	}
	return &inferLine{alloc: a}, nil
}

// Allocate serves the demand with the fixed most-accurate variants if
// possible, and otherwise provisions the whole cluster for the largest
// fraction it can sustain at fixed accuracy.
func (b *inferLine) Allocate(demand float64) (*core.Plan, error) {
	plan, err := b.alloc.AllocateHardwareOnly(demand)
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// AllocateCapped is Allocate with the per-class server counts temporarily
// bounded to caps, so an InferLine-managed pipeline can live inside a
// multi-tenant partition (core.CappedPlanner). Homogeneous pools pass a
// single-element vector.
func (b *inferLine) AllocateCapped(demand float64, caps []int) (*core.Plan, error) {
	if err := b.alloc.CheckCaps(caps); err != nil {
		return nil, err
	}
	return b.alloc.Capped(caps).AllocateHardwareOnly(demand)
}

// Proteus performs per-task accuracy scaling without pipeline awareness
// (§6.1 baseline 2).
type Proteus struct {
	meta *core.MetadataStore
	opts core.AllocatorOptions

	// taskShare[i] is the static number of servers dedicated to task i.
	taskShare []int
	// taskDemand tracks each task's own observed arrival rate; Observe
	// feeds it (the cluster harness reports per-task arrivals).
	taskDemand []float64
	allocs     []*core.Allocator
}

// NewProteus builds the baseline planner. The cluster is partitioned across
// tasks proportionally to each task's compute demand per root query at
// maximum accuracy — the natural static split an operator would configure —
// and the partition never changes afterwards (that is the point of the
// baseline).
func NewProteus(meta *core.MetadataStore, opts core.AllocatorOptions) (*Proteus, error) {
	if len(meta.Classes()) > 1 {
		// The static per-task partition has no notion of hardware classes:
		// an operator-configured split of a heterogeneous fleet is a
		// different (and stronger) baseline than the paper compares against.
		return nil, fmt.Errorf("baselines: the Proteus-like baseline supports homogeneous clusters only")
	}
	g := meta.Graph()
	n := len(g.Tasks)
	p := &Proteus{
		meta:       meta,
		opts:       opts,
		taskShare:  make([]int, n),
		taskDemand: make([]float64, n),
	}

	// Static partition: weight each task by (expected load per root query)
	// / (throughput of its most accurate variant at a mid batch size).
	weights := make([]float64, n)
	loads := rootLoads(g)
	prof := meta.Profiles()
	total := 0.0
	for i := range g.Tasks {
		best := g.Tasks[i].MostAccurate()
		q, _ := prof[i][best].MaxQPS()
		if q <= 0 {
			return nil, fmt.Errorf("baselines: task %d has no throughput", i)
		}
		weights[i] = loads[i] / q
		total += weights[i]
	}
	assigned := 0
	for i := range g.Tasks {
		s := int(math.Floor(float64(opts.Servers) * weights[i] / total))
		if s < 1 {
			s = 1
		}
		p.taskShare[i] = s
		assigned += s
	}
	// Distribute the remainder to the heaviest tasks.
	for assigned < opts.Servers {
		best := 0
		for i := range weights {
			if weights[i]/float64(p.taskShare[i]) > weights[best]/float64(p.taskShare[best]) {
				best = i
			}
		}
		p.taskShare[best]++
		assigned++
	}
	for assigned > opts.Servers {
		// Extremely small clusters: shrink the lightest tasks, floor 1.
		best := -1
		for i := range weights {
			if p.taskShare[i] > 1 && (best < 0 || weights[i]/float64(p.taskShare[i]) < weights[best]/float64(p.taskShare[best])) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p.taskShare[best]--
		assigned--
	}

	// One single-task allocator per task, with an equal share of the SLO.
	for i := range g.Tasks {
		sub := &pipeline.Graph{
			Name:  fmt.Sprintf("%s/task-%d", g.Name, i),
			Tasks: []pipeline.Task{{ID: 0, Name: g.Tasks[i].Name, Variants: g.Tasks[i].Variants}},
		}
		subMeta := core.NewMetadataStore(sub,
			[][]profiles.Profile{append([]profiles.Profile(nil), prof[i]...)},
			meta.SLO()/float64(len(g.Tasks)), meta.Batches())
		a, err := core.NewAllocator(subMeta, core.AllocatorOptions{
			Servers:        p.taskShare[i],
			NetLatencySec:  opts.NetLatencySec,
			KeepWarm:       true,
			Headroom:       opts.Headroom,
			SolveTimeLimit: opts.SolveTimeLimit,
		})
		if err != nil {
			return nil, fmt.Errorf("baselines: task %d (share %d servers): %w", i, p.taskShare[i], err)
		}
		p.allocs = append(p.allocs, a)
	}
	return p, nil
}

// rootLoads returns the expected number of requests reaching each task per
// root query, using the most accurate variants' multiplicative factors.
func rootLoads(g *pipeline.Graph) []float64 {
	loads := make([]float64, len(g.Tasks))
	var walk func(id pipeline.TaskID, mult float64)
	walk = func(id pipeline.TaskID, mult float64) {
		loads[id] += mult
		best := g.Tasks[id].MostAccurate()
		out := mult * g.Tasks[id].Variants[best].MultFactor
		for _, c := range g.Tasks[id].Children {
			walk(c.Task, out*c.BranchRatio)
		}
	}
	walk(0, 1)
	return loads
}

// ObserveTaskDemand records a task's own arrival rate (QPS). The harness
// reports these; Proteus scales each task against its *own* history instead
// of deriving downstream demand from the pipeline structure — the
// pipeline-agnosticism that costs it accuracy and SLO compliance.
func (p *Proteus) ObserveTaskDemand(task pipeline.TaskID, qps float64) {
	const alpha = 0.35
	if p.taskDemand[task] == 0 {
		p.taskDemand[task] = qps
		return
	}
	p.taskDemand[task] = alpha*qps + (1-alpha)*p.taskDemand[task]
}

// Allocate runs one independent accuracy-scaling optimization per task and
// stitches the results into a whole-cluster plan. All servers remain active:
// Proteus performs no hardware scaling.
func (p *Proteus) Allocate(demand float64) (*core.Plan, error) {
	g := p.meta.Graph()
	merged := &core.Plan{
		Mode:           core.AccuracyScaling,
		Demand:         demand,
		ServedFraction: 1,
	}
	loads := rootLoads(g)
	accW, accN := 0.0, 0.0
	for i := range g.Tasks {
		taskDemand := p.taskDemand[i]
		if taskDemand == 0 {
			// No per-task telemetry yet: fall back to the root demand
			// (still pipeline-agnostic — no multiplicative factors).
			taskDemand = demand
		}
		sub, err := p.allocs[i].Allocate(taskDemand)
		if err != nil {
			return nil, err
		}
		// Proteus keeps its entire partition active regardless of need: if
		// the sub-plan used fewer servers than the task's share, pad with
		// extra replicas of its most accurate deployed configuration.
		used := 0
		bestIdx := -1
		for ai, a := range sub.Assignments {
			used += a.Replicas
			if bestIdx < 0 || a.Accuracy > sub.Assignments[bestIdx].Accuracy {
				bestIdx = ai
			}
		}
		if bestIdx >= 0 && used < p.taskShare[i] {
			sub.Assignments[bestIdx].Replicas += p.taskShare[i] - used
		}
		for _, a := range sub.Assignments {
			merged.Assignments = append(merged.Assignments, core.Assignment{
				Task: pipeline.TaskID(i), Variant: a.Variant, MaxBatch: a.MaxBatch,
				Replicas: a.Replicas, QPS: a.QPS, LatencySec: a.LatencySec,
				Accuracy: a.Accuracy, BudgetSec: a.BudgetSec,
			})
		}
		accW += sub.ExpectedAccuracy * loads[i]
		accN += loads[i]
		if sub.ServedFraction < merged.ServedFraction {
			merged.ServedFraction = sub.ServedFraction
			if sub.ServedFraction < 1 {
				merged.Mode = core.Saturated
			}
		}
	}
	merged.ServersUsed = p.opts.Servers // no hardware scaling: all active
	if accN > 0 {
		merged.ExpectedAccuracy = accW / accN
	}
	merged.SolveStats = core.SolveStats{Step: 2}
	return merged, nil
}
