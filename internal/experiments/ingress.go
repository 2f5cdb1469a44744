package experiments

import (
	"fmt"
	"strings"

	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/trace"
)

// IngressConfig describes the overload-shedding experiment: the traffic
// chain serves an open-loop load swept from below to far past its measured
// capacity, once with the front door wide open (every request admitted —
// today's trace-fed behaviour) and once with per-tenant admission control
// armed. The sweep runs on the simulator through the same admission
// controller the HTTP front door uses; lokibench's http-overload workload
// measures the same door over real sockets.
type IngressConfig struct {
	Servers int
	SLOSec  float64
	Seed    int64
	// Mults are the offered-load multipliers of the measured cluster
	// capacity (MaxCapacity of the planner's own allocator).
	Mults []float64
	// DurSec is the seconds of load per sweep point; WarmupSec buckets at
	// the head of each point are excluded from attainment and goodput (the
	// fresh token bucket's burst).
	DurSec    float64
	WarmupSec float64
}

func (c *IngressConfig) defaults() {
	if c.Servers == 0 {
		c.Servers = 20
	}
	if c.SLOSec == 0 {
		c.SLOSec = 0.250
	}
	if len(c.Mults) == 0 {
		c.Mults = []float64{0.5, 1.0, 1.5, 2.0}
	}
	if c.DurSec == 0 {
		c.DurSec = 20
	}
	if c.WarmupSec == 0 {
		// Must outlast the fresh token bucket's burst allowance (BurstSec of
		// capacity) plus the drain the plan's route headroom affords — about
		// BurstSec/headroom seconds — or every overloaded point measures the
		// start-up transient instead of steady state.
		c.WarmupSec = 5
	}
}

// IngressPoint is one sweep point: one offered rate served through one front
// door configuration.
type IngressPoint struct {
	Mult       float64
	OfferedQPS float64
	Admission  bool
	// Attainment is the SLO attainment of admitted requests after warmup —
	// with admission off every request is admitted, so this is the
	// all-requests attainment the no-front-door system delivers.
	Attainment float64
	// GoodputQPS is the mean rate of on-time completions after warmup.
	GoodputQPS float64
	// ShedRate is the shed fraction of the offered load (Summary.Shed over
	// Summary.Arrivals plus Summary.Shed).
	ShedRate float64
	Summary  metrics.Summary
}

// IngressResult is the full sweep: capacity-normalised points with and
// without admission control, pairwise comparable by index.
type IngressResult struct {
	CapacityQPS float64
	SLOSec      float64
	// Baseline is the open front door (no admission); Admitted is the same
	// sweep with admission control armed. Same Mults order as the config.
	Baseline []IngressPoint
	Admitted []IngressPoint
}

// Ingress runs the overload sweep on the simulator: no sockets and no wall
// clock, so the points do not depend on host load beyond the planner's
// wall-clock-limited solves.
func Ingress(cfg IngressConfig) (*IngressResult, error) {
	cfg.defaults()
	capacity, err := measureCapacity(RunConfig{Servers: cfg.Servers, SLOSec: cfg.SLOSec, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res := &IngressResult{CapacityQPS: capacity, SLOSec: cfg.SLOSec}
	for _, withAdmission := range []bool{false, true} {
		for _, mult := range cfg.Mults {
			p, err := serveIngressPoint(&cfg, capacity, capacity*mult, withAdmission)
			if err != nil {
				return nil, fmt.Errorf("experiments: ingress %.2gx admission=%v: %w", mult, withAdmission, err)
			}
			p.Mult = mult
			if withAdmission {
				res.Admitted = append(res.Admitted, p)
			} else {
				res.Baseline = append(res.Baseline, p)
			}
		}
	}
	return res, nil
}

// measureCapacity asks a fresh allocator for the largest demand the
// traffic-analysis pipeline can fully serve on rc's pool: the 1× anchor of
// the ingress sweep, and the chaos grid's demand cap.
func measureCapacity(rc RunConfig) (float64, error) {
	rc.defaults()
	alloc, err := stack.New(rc.pool()).Allocator(profiles.TrafficTree(), rc.SLOSec)
	if err != nil {
		return 0, err
	}
	return alloc.MaxCapacity(0, 20000), nil
}

// serveIngressPoint serves DurSec of Poisson load at the offered rate through
// a fresh single-tenant stack, its front door open or admission-controlled,
// and returns the point's outcome.
//
// Both arms run the NoDrop completion policy: the baseline must actually
// exhibit queueing-then-missing — excess arrivals rotting in the queue past
// their SLO — which is exactly what admission control prevents. The §5.2
// early-drop triage is a different, downstream mechanism with its own
// ablation (Figure 7); leaving it on here would conflate the two.
//
// Both arms also plan for at most the pool's SLO-feasible capacity, so the
// data plane is identical and the front door is the only variable. With
// admission the cap is what production uses (the serving stack caps every
// gated tenant): the plan stays feasible — SLO-honest batches — and the
// excess is the gate's to shed. For the open baseline the cap is what makes
// it the queueing-then-missing door: excess arrivals pile up behind a
// capacity-sized plan and rot past the SLO. Uncapped, the planner would
// instead absorb overload with a saturated throughput-optimal plan — a
// different overload response (degraded accuracy, ~53% attainment at any
// load) that conflates planning policy with the admission mechanism this
// sweep isolates.
//
// The stack is pre-warmed at the offered rate, so the sweep measures
// steady-state shedding, not cold-start planning lag.
func serveIngressPoint(cfg *IngressConfig, capacity, offered float64, withAdmission bool) (IngressPoint, error) {
	s, err := serve(RunConfig{Servers: cfg.Servers, SLOSec: cfg.SLOSec, Seed: cfg.Seed, BucketSec: 1}, []stack.Spec{{
		Name: "pipeline", Graph: profiles.TrafficTree(), Policy: policy.NoDrop{},
		Admission: withAdmission, DemandCapQPS: capacity,
	}}, []*trace.Trace{trace.Ramp(offered, offered, 1, cfg.DurSec)}, nil)
	if err != nil {
		return IngressPoint{}, err
	}
	col := s.Tenants[0].Col
	w := window(col.Series(), cfg.WarmupSec, cfg.DurSec)
	p := IngressPoint{
		OfferedQPS: offered,
		Admission:  withAdmission,
		Attainment: w.attainment(),
		GoodputQPS: w.meanGoodput(),
		Summary:    col.Summarize(),
	}
	if n := p.Summary.Arrivals + p.Summary.Shed; n > 0 {
		p.ShedRate = float64(p.Summary.Shed) / float64(n)
	}
	return p, nil
}

// FormatIngress renders the sweep: one row per (mode, multiplier) with the
// offered and shed counts and the attainment/goodput after warmup, then the
// pairwise admission-vs-baseline deltas the experiment exists to show.
func FormatIngress(r *IngressResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "measured capacity %.0f qps, SLO %.0f ms\n", r.CapacityQPS, r.SLOSec*1000)
	fmt.Fprintf(&b, "  %-10s %6s %9s %8s %8s %7s %10s %10s\n",
		"front door", "mult", "offered", "sent", "shed", "shed-%", "attainment", "goodput")
	rows := func(name string, pts []IngressPoint) {
		for _, p := range pts {
			fmt.Fprintf(&b, "  %-10s %5.2gx %7.0f/s %8d %8d %6.1f%% %10.4f %8.0f/s\n",
				name, p.Mult, p.OfferedQPS, p.Summary.Arrivals+p.Summary.Shed, p.Summary.Shed, 100*p.ShedRate,
				p.Attainment, p.GoodputQPS)
		}
	}
	rows("open", r.Baseline)
	rows("admission", r.Admitted)
	for i := range r.Admitted {
		if i >= len(r.Baseline) {
			break
		}
		base, adm := r.Baseline[i], r.Admitted[i]
		fmt.Fprintf(&b, "  %.2gx: attainment %.4f -> %.4f (%+.4f), goodput %.0f -> %.0f qps (%+.0f)\n",
			adm.Mult, base.Attainment, adm.Attainment, adm.Attainment-base.Attainment,
			base.GoodputQPS, adm.GoodputQPS, adm.GoodputQPS-base.GoodputQPS)
	}
	return b.String()
}
