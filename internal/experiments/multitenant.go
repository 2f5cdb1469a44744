package experiments

import (
	"fmt"
	"strings"

	"loki/internal/metrics"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/trace"
)

// MultiTenantConfig describes the shared-pool contention experiment: two
// pipelines (traffic analysis and social media, the paper's two evaluation
// workloads) co-located on one cluster, with a flash-crowd spike injected
// into the traffic pipeline mid-run.
type MultiTenantConfig struct {
	Servers    int
	SLOSec     float64
	Seed       int64
	TraceSteps int
	StepSec    float64
	// PeakA and PeakB are the two traces' steady peaks (QPS).
	PeakA, PeakB float64
	// SpikeMult multiplies pipeline A's rate over the middle fifth of the
	// run (≤ 1 disables the spike).
	SpikeMult float64
	// ShareA and ShareB are the guaranteed pool fractions under contention
	// (0 = split the unreserved fraction equally).
	ShareA, ShareB float64
}

func (c *MultiTenantConfig) defaults() {
	if c.Servers == 0 {
		c.Servers = 20
	}
	if c.SLOSec == 0 {
		c.SLOSec = 0.250
	}
	if c.TraceSteps == 0 {
		c.TraceSteps = 48
	}
	if c.StepSec == 0 {
		c.StepSec = 10
	}
	if c.PeakA == 0 {
		c.PeakA = 350
	}
	if c.PeakB == 0 {
		c.PeakB = 250
	}
	if c.SpikeMult == 0 {
		c.SpikeMult = 3
	}
}

// TenantOutcome is one pipeline's share of a multi-tenant run.
type TenantOutcome struct {
	Name    string
	Summary metrics.Summary
	// MinGrant/MaxGrant bound the servers the joint allocator granted this
	// pipeline across adaptation rounds; FinalGrant is the standing grant.
	MinGrant, MaxGrant, FinalGrant int
}

// MultiTenantResult aggregates the contention experiment.
type MultiTenantResult struct {
	Tenants []TenantOutcome
	// GrantHistory is the per-allocation grant vector (one row per joint
	// allocation, in step order).
	GrantHistory [][]int
	// Allocates counts MILP invocations across both tenants.
	Allocates int
}

// MultiTenant runs the shared-pool contention experiment on the
// discrete-event simulator: both pipelines feed concurrently, pipeline A
// spikes mid-run, and the joint allocator re-partitions the pool on each
// adaptation round. It reports the SLO attainment each tenant keeps while
// the pool is contended — the multi-tenant analogue of the paper's Figure
// 5/6 serving runs.
func MultiTenant(cfg MultiTenantConfig) (*MultiTenantResult, error) {
	cfg.defaults()

	trA := trace.AzureLike(cfg.Seed, cfg.TraceSteps, cfg.StepSec).ScaleToPeak(cfg.PeakA)
	if cfg.SpikeMult > 1 {
		trA = trA.WithSpike(0.4, 0.2, cfg.SpikeMult)
	}
	trB := trace.TwitterLike(cfg.Seed+1, cfg.TraceSteps, cfg.StepSec).ScaleToPeak(cfg.PeakB)
	tenants := []stack.Spec{
		{Name: "traffic", Graph: profiles.TrafficTree(), Share: cfg.ShareA},
		{Name: "social", Graph: profiles.SocialMedia(), Share: cfg.ShareB},
	}

	res := &MultiTenantResult{}
	s, err := serve(RunConfig{Servers: cfg.Servers, SLOSec: cfg.SLOSec, Seed: cfg.Seed}, tenants, []*trace.Trace{trA, trB},
		func(p *stack.Pool) {
			p.OnGrants = func(step int, grants []int) { res.GrantHistory = append(res.GrantHistory, grants) }
		})
	if err != nil {
		return nil, err
	}

	final := s.Ctrl.Grants()
	for i, t := range s.Tenants {
		out := TenantOutcome{
			Name:       t.Name,
			Summary:    t.Col.Summarize(),
			FinalGrant: final[i],
		}
		for _, row := range res.GrantHistory {
			g := row[i]
			if out.MinGrant == 0 || g < out.MinGrant {
				out.MinGrant = g
			}
			if g > out.MaxGrant {
				out.MaxGrant = g
			}
		}
		res.Tenants = append(res.Tenants, out)
	}
	res.Allocates = s.Ctrl.Allocates()
	return res, nil
}

// FormatMultiTenant renders the contention experiment as a per-tenant
// table plus the grant timeline.
func FormatMultiTenant(r *MultiTenantResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %8s %18s\n",
		"pipeline", "arrivals", "completed", "slo-viol", "accuracy", "servers", "grant min/max/end")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-10s %10d %10d %10.4f %10.4f %8.1f %12d/%d/%d\n",
			t.Name, t.Summary.Arrivals, t.Summary.Completed+t.Summary.Late,
			t.Summary.ViolationRatio, t.Summary.MeanAccuracy, t.Summary.MeanServers,
			t.MinGrant, t.MaxGrant, t.FinalGrant)
	}
	fmt.Fprintf(&b, "\njoint allocations: %d (MILP solves %d)\ngrant timeline:", len(r.GrantHistory), r.Allocates)
	for _, row := range r.GrantHistory {
		fmt.Fprintf(&b, " %v", row)
	}
	b.WriteString("\n")
	return b.String()
}
