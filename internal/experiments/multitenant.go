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
}

func (c *MultiTenantConfig) defaults() {
	if c.TraceSteps == 0 {
		c.TraceSteps = 48
	}
	if c.StepSec == 0 {
		c.StepSec = 10
	}
}

// The contention scenario: the traffic trace peaks at 350 qps and the social
// trace at 250, and the traffic pipeline's rate triples over the middle fifth
// of the run. Neither tenant reserves a share, so under contention the
// arbiter splits the pool equally.
const (
	multiTenantPeakA, multiTenantPeakB = 350, 250
	multiTenantSpikeMult               = 3
)

// tenantOutcome is one pipeline's share of a multi-tenant run.
type tenantOutcome struct {
	name    string
	summary metrics.Summary
	// minGrant/maxGrant bound the servers the joint allocator granted this
	// pipeline across adaptation rounds; finalGrant is the standing grant.
	minGrant, maxGrant, finalGrant int
}

// multiTenantResult aggregates the contention experiment.
type multiTenantResult struct {
	tenants []tenantOutcome
	// grantHistory is the per-allocation grant vector (one row per joint
	// allocation, in step order).
	grantHistory [][]int
	// allocates counts MILP invocations across both tenants.
	allocates int
}

// MultiTenant runs the shared-pool contention experiment on the
// discrete-event simulator: both pipelines feed concurrently, pipeline A
// spikes mid-run, and the joint allocator re-partitions the pool on each
// adaptation round. It reports the SLO attainment each tenant keeps while
// the pool is contended — the multi-tenant analogue of the paper's Figure
// 5/6 serving runs.
func MultiTenant(cfg MultiTenantConfig) (*multiTenantResult, error) {
	cfg.defaults()

	trA := trace.AzureLike(cfg.Seed, cfg.TraceSteps, cfg.StepSec).ScaleToPeak(multiTenantPeakA).
		WithSpike(0.4, 0.2, multiTenantSpikeMult)
	trB := trace.TwitterLike(cfg.Seed+1, cfg.TraceSteps, cfg.StepSec).ScaleToPeak(multiTenantPeakB)
	tenants := []stack.Spec{
		{Name: "traffic", Graph: profiles.TrafficTree()},
		{Name: "social", Graph: profiles.SocialMedia()},
	}

	res := &multiTenantResult{}
	s, err := serve(RunConfig{Servers: cfg.Servers, sloSec: cfg.SLOSec, Seed: cfg.Seed}, tenants, []*trace.Trace{trA, trB},
		func(p *stack.Pool) {
			p.OnGrants = func(step int, grants []int) { res.grantHistory = append(res.grantHistory, grants) }
		})
	if err != nil {
		return nil, err
	}

	final := s.Ctrl.Grants()
	for i, t := range s.Tenants {
		out := tenantOutcome{
			name:       t.Name,
			summary:    t.Col.Summarize(),
			finalGrant: final[i],
		}
		for _, row := range res.grantHistory {
			g := row[i]
			if out.minGrant == 0 || g < out.minGrant {
				out.minGrant = g
			}
			if g > out.maxGrant {
				out.maxGrant = g
			}
		}
		res.tenants = append(res.tenants, out)
	}
	res.allocates = s.Ctrl.Allocates()
	return res, nil
}

// FormatMultiTenant renders the contention experiment as a per-tenant
// table plus the grant timeline.
func FormatMultiTenant(r *multiTenantResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %8s %18s\n",
		"pipeline", "arrivals", "completed", "slo-viol", "accuracy", "servers", "grant min/max/end")
	for _, t := range r.tenants {
		fmt.Fprintf(&b, "%-10s %10d %10d %10.4f %10.4f %8.1f %12d/%d/%d\n",
			t.name, t.summary.Arrivals, t.summary.Completed+t.summary.Late,
			t.summary.ViolationRatio, t.summary.MeanAccuracy, t.summary.MeanServers,
			t.minGrant, t.maxGrant, t.finalGrant)
	}
	fmt.Fprintf(&b, "\njoint allocations: %d (MILP solves %d)\ngrant timeline:", len(r.grantHistory), r.allocates)
	for _, row := range r.grantHistory {
		fmt.Fprintf(&b, " %v", row)
	}
	b.WriteString("\n")
	return b.String()
}
