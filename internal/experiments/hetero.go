package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"loki/internal/profiles"
	"loki/internal/trace"
)

// HeteroConfig describes the mixed-fleet experiment: the same pipeline and
// trace served twice, once on a heterogeneous fleet of hardware classes and
// once on a speed-equivalent homogeneous fleet (same server count, each
// server running at the fleet's mean speed, each costing the fleet's mean
// dollar rate — the "one mid-range SKU" purchase an operator would make for
// the same aggregate capacity and budget). The comparison isolates what the
// planner extracts from heterogeneity itself: with per-class capacity rows
// and the cost-aware objective it steers small/fast variants onto the slow
// cheap classes and the big accurate variants onto the fast ones, where the
// homogeneous fleet has no such knob.
type HeteroConfig struct {
	SLOSec     float64
	Seed       int64
	TraceSteps int
	StepSec    float64
}

func (c *HeteroConfig) defaults() {
	if c.TraceSteps == 0 {
		c.TraceSteps = 48
	}
	if c.StepSec == 0 {
		c.StepSec = 10
	}
}

// HomogeneousEquivalent returns the speed- and budget-equivalent homogeneous
// fleet of a class set: the same number of servers, each at the fleet's mean
// speed and mean cost per hour.
func HomogeneousEquivalent(classes []profiles.Class) []profiles.Class {
	n := profiles.TotalCount(classes)
	speed, cost := 0.0, 0.0
	for _, cl := range classes {
		speed += float64(cl.Count) * cl.Speed
		cost += float64(cl.Count) * cl.CostPerHour
	}
	return []profiles.Class{{
		Name:        "uniform",
		Count:       n,
		Speed:       speed / float64(n),
		CostPerHour: cost / float64(n),
	}}
}

// HeteroOutcome is one fleet's serving run.
type HeteroOutcome struct {
	Name string // hetero or homogeneous
	Run  *RunResult
	// SLOAttainment is 1 - violation ratio.
	SLOAttainment float64
	// CostPerQuery is accrued server dollars per answered request.
	CostPerQuery float64
	// ServersByClass is the mean active servers per class name.
	ServersByClass map[string]float64
}

// HeteroResult aggregates the mixed-fleet experiment.
type HeteroResult struct {
	Hetero, Homogeneous HeteroOutcome
	// CostSavingsPct is how much cheaper per query the heterogeneous fleet
	// served the identical workload (positive = hetero cheaper).
	CostSavingsPct float64
}

// Hetero runs the mixed-fleet experiment on the discrete-event simulator:
// the traffic-analysis pipeline over an Azure-shaped diurnal trace peaking at
// 700 qps, once on the heterogeneous fleet (a100:4@2.0@3.2, v100:8@1.0@1.2,
// t4:12@0.5@0.55) and once on its speed-equivalent homogeneous twin.
func Hetero(cfg HeteroConfig) (*HeteroResult, error) {
	cfg.defaults()
	tr := trace.AzureLike(cfg.Seed, cfg.TraceSteps, cfg.StepSec).ScaleToPeak(700)
	classes := []profiles.Class{
		{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: 3.2},
		{Name: "v100", Count: 8, Speed: 1.0, CostPerHour: 1.2},
		{Name: "t4", Count: 12, Speed: 0.5, CostPerHour: 0.55},
	}

	run := func(name string, classes []profiles.Class) (HeteroOutcome, error) {
		res, err := Run(RunConfig{
			Graph:   profiles.TrafficTree(),
			Trace:   tr,
			Classes: classes,
			SLOSec:  cfg.SLOSec,
			Seed:    cfg.Seed,
		})
		if err != nil {
			return HeteroOutcome{}, fmt.Errorf("experiments: %s fleet: %w", name, err)
		}
		out := HeteroOutcome{
			Name:           name,
			Run:            res,
			SLOAttainment:  1 - res.Summary.ViolationRatio,
			ServersByClass: map[string]float64{},
		}
		for i, n := range res.Summary.ClassNames {
			out.ServersByClass[n] = res.Summary.MeanServersByClass[i]
		}
		if answered := res.Summary.Completed + res.Summary.Late; answered > 0 {
			out.CostPerQuery = res.Summary.CostHours / float64(answered)
		}
		return out, nil
	}

	het, err := run("hetero", classes)
	if err != nil {
		return nil, err
	}
	hom, err := run("homogeneous", HomogeneousEquivalent(classes))
	if err != nil {
		return nil, err
	}
	r := &HeteroResult{Hetero: het, Homogeneous: hom}
	if hom.CostPerQuery > 0 {
		r.CostSavingsPct = 100 * (1 - het.CostPerQuery/hom.CostPerQuery)
	}
	return r, nil
}

// FormatHetero renders the mixed-fleet experiment as a comparison table plus
// the per-class occupancy of the heterogeneous run.
func FormatHetero(r *HeteroResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %10s %12s %14s %8s\n",
		"fleet", "slo-attain", "accuracy", "cost($)", "cost/query($)", "servers")
	for _, o := range []HeteroOutcome{r.Hetero, r.Homogeneous} {
		fmt.Fprintf(&b, "%-12s %12.4f %10.4f %12.3f %14.7f %8.1f\n",
			o.Name, o.SLOAttainment, o.Run.Summary.MeanAccuracy,
			o.Run.Summary.CostHours, o.CostPerQuery, o.Run.Summary.MeanServers)
	}
	fmt.Fprintf(&b, "\nhetero cost savings per query: %.1f%%\n", r.CostSavingsPct)
	fmt.Fprintf(&b, "hetero mean occupancy by class:")
	for _, name := range slices.Sorted(maps.Keys(r.Hetero.ServersByClass)) {
		fmt.Fprintf(&b, " %s=%.1f", name, r.Hetero.ServersByClass[name])
	}
	b.WriteString("\n(the planner steers the small fast variants onto the slow cheap class and\nthe accurate heavy variants onto the fast class; the uniform fleet cannot)\n")
	return b.String()
}
