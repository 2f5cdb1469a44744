package experiments

import (
	"fmt"
	"strings"
	"time"

	"loki/internal/fault"
	"loki/internal/metrics"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/trace"
)

// ChaosConfig describes the fault-injection suite: two pipelines — a
// high-tier "gold" and a low-tier "free" — share a reserved+spot pool at
// full load while the spot class suffers a mid-run fault (a partial crash,
// a whole-class outage, or a straggler slowdown) with a timed recovery.
// Every fault runs twice, with tiers and without, and each arm is scored in
// three windows (before, during, after the fault) against an
// instantly-replanning oracle: the during-oracle serves the same load with
// the fault active from the start (no stale state to converge from), the
// after-oracle is a fault-free run.
type ChaosConfig struct {
	SLOSec float64
	Seed   int64
	// Faults selects which fault kinds to run (subset of "crash",
	// "outage", "straggle"; empty = all three).
	// TestChaosOutageMatchesRecordedRun uses it to run the headline outage
	// cell alone.
	Faults []string
	// Quick shrinks the run for smoke passes.
	Quick bool
	// capacity is one tenant's measured capacity on the healthy pool, set
	// by Chaos: every run caps both admission-fronted tenants' planning
	// demand at it. Zero leaves each tenant's allocator to measure its own.
	capacity float64
}

// The chaos scenario: a 12-server reserved class and an 8-server spot class,
// each pipeline offered a steady 240 qps — together the two run the healthy
// pool near capacity, so the spot outage forces a real shortfall. The crash
// cell takes 2 spot servers down; the straggle cell slows 4 to a quarter of
// their speed.
const (
	chaosReserved, chaosSpot    = 12, 8
	chaosQPS                    = 240
	chaosCrashN, chaosStraggleN = 2, 4
	chaosStraggleFactor         = 0.25
)

// timing returns the run length and the fault's start and duration: a
// 120-second run with the fault over [40, 80), or 60 seconds with it over
// [20, 40) when Quick.
func (c *ChaosConfig) timing() (durSec, faultAtSec, faultDurSec float64) {
	if c.Quick {
		return 60, 20, 20
	}
	return 120, 40, 40
}

// windows returns the three scoring windows: before starts after warmup,
// during leaves a short grace for detection and re-planning, after starts
// one adaptation round past recovery (the oracle-convergence acceptance is
// "within one round", so the window begins where that promise ends).
func (c *ChaosConfig) windows() (b0, b1, d0, d1, a0, a1 float64) {
	grace := 5.0
	round := 10.0
	if c.Quick {
		grace, round = 4, 10
	}
	dur, at, length := c.timing()
	return 10, at,
		at + grace, at + length,
		at + length + round, dur
}

// chaosWindow is one tenant's score over one window. attainment is the SLO
// attainment of the admitted population; goodputRatio divides on-time
// completions by the offered load (admitted + shed), so front-door shedding
// — invisible to attainment, since shed requests never arrive — still
// counts as degradation; shedPct is the shed share of offered load.
type chaosWindow struct {
	attainment   float64
	goodputRatio float64
	shedPct      float64
}

// chaosTenant is one pipeline's outcome across the three windows of one
// cell, alongside the oracle's score for the during and after windows.
type chaosTenant struct {
	name                      string
	tier                      int
	before, during, after     chaosWindow
	oracleDuring, oracleAfter chaosWindow
}

// chaosCell is one grid cell: a fault kind served with or without tiers.
type chaosCell struct {
	fault   string
	tiered  bool
	events  []string
	tenants []chaosTenant
}

// chaosResult is the full grid.
type chaosResult struct {
	cells []chaosCell
}

// chaosFaults returns the cell's fault schedule. permanent anchors the
// fault at the start of the run with no recovery — the oracle arm, whose
// control plane never holds state from a healthier pool.
func (c *ChaosConfig) chaosFaults(kind string, permanent bool) []fault.Event {
	_, at, rec := c.timing()
	if permanent {
		at, rec = 0, 0
	}
	ev := fault.Event{
		At:           time.Duration(at * float64(time.Second)),
		Class:        "spot",
		RecoverAfter: time.Duration(rec * float64(time.Second)),
	}
	switch kind {
	case "crash":
		ev.Kind = fault.Crash
		ev.N = chaosCrashN
	case "outage":
		ev.Kind = fault.Outage
	case "straggle":
		ev.Kind = fault.Straggler
		ev.N = chaosStraggleN
		ev.Factor = chaosStraggleFactor
	}
	return []fault.Event{ev}
}

// run is the pool every run of the grid serves on: reserved plus spot.
func (c *ChaosConfig) run() RunConfig {
	return RunConfig{
		Classes: []profiles.Class{
			{Name: "res", Count: chaosReserved, Speed: 1.0},
			{Name: "spot", Count: chaosSpot, Speed: 1.0},
		},
		sloSec: c.SLOSec,
		Seed:   c.Seed,
		// One-second buckets: the windows are scored at fault granularity.
		bucketSec: 1,
	}
}

// chaosOnGrants, when set by a test, observes every joint allocation of a
// chaos run (step, per-tenant granted-server totals).
var chaosOnGrants func(step int, totals []int)

// chaosRun serves the two-pipeline scenario once on the simulator and
// returns each tenant's collector plus the fault events observed.
func chaosRun(cfg ChaosConfig, tiered bool, faults []fault.Event) ([]*metrics.Collector, []string, error) {
	dur, _, _ := cfg.timing()
	tr := trace.Ramp(chaosQPS, chaosQPS, int(dur/4), 4)
	var tenants []stack.Spec
	for _, name := range []string{"gold", "free"} {
		tenants = append(tenants, stack.Spec{Name: name, Graph: profiles.TrafficTree(), Admission: true, DemandCapQPS: cfg.capacity})
	}
	if tiered {
		tenants[0].Tier = 1
	}
	var events []string
	s, err := serve(cfg.run(), tenants, []*trace.Trace{tr, tr}, func(p *stack.Pool) {
		p.Faults, p.OnGrants = faults, chaosOnGrants
		p.OnFault = func(timeSec float64, desc string) {
			events = append(events, fmt.Sprintf("t=%.0fs %s", timeSec, desc))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	cols := make([]*metrics.Collector, len(s.Tenants))
	for i, t := range s.Tenants {
		cols[i] = t.Col
	}
	return cols, events, nil
}

// score is the window as a chaosWindow: attainment, goodput ratio and shed
// share of the offered load.
func (w windowSum) score() chaosWindow {
	c := chaosWindow{attainment: w.attainment(), goodputRatio: 1}
	if offered := w.arrivals + w.shed; offered > 0 {
		c.goodputRatio = float64(w.arrivals-w.violations) / float64(offered)
		c.shedPct = 100 * float64(w.shed) / float64(offered)
	}
	return c
}

// Chaos runs the full fault × tiering grid on the simulator. Every cell
// serves the same full-load scenario; its oracle arms share the cell's
// seed, so main-vs-oracle gaps measure adaptation lag, not workload noise.
func Chaos(cfg ChaosConfig) (*chaosResult, error) {
	// One capacity measurement serves the whole grid (each tenant measuring
	// its own would cost a MaxCapacity solve per tenant per run).
	var err error
	if cfg.capacity, err = measureCapacity(cfg.run()); err != nil {
		return nil, err
	}
	b0, b1, d0, d1, a0, a1 := cfg.windows()
	res := &chaosResult{}
	kinds := cfg.Faults
	if len(kinds) == 0 {
		kinds = []string{"crash", "outage", "straggle"}
	}
	for _, kind := range kinds {
		for _, tiered := range []bool{true, false} {
			cols, events, err := chaosRun(cfg, tiered, cfg.chaosFaults(kind, false))
			if err != nil {
				return nil, err
			}
			// During-oracle: the same fault, active from the start and
			// never recovered — a control plane with nothing stale to
			// unlearn in the during window.
			oCols, _, err := chaosRun(cfg, tiered, cfg.chaosFaults(kind, true))
			if err != nil {
				return nil, err
			}
			// After-oracle: no fault at all, scored in the after window.
			cCols, _, err := chaosRun(cfg, tiered, nil)
			if err != nil {
				return nil, err
			}
			cell := chaosCell{fault: kind, tiered: tiered, events: events}
			tiers := []int{0, 0}
			if tiered {
				tiers[0] = 1
			}
			for i, name := range []string{"gold", "free"} {
				s := cols[i].Series()
				cell.tenants = append(cell.tenants, chaosTenant{
					name:         name,
					tier:         tiers[i],
					before:       window(s, b0, b1).score(),
					during:       window(s, d0, d1).score(),
					after:        window(s, a0, a1).score(),
					oracleDuring: window(oCols[i].Series(), d0, d1).score(),
					oracleAfter:  window(cCols[i].Series(), a0, a1).score(),
				})
			}
			res.cells = append(res.cells, cell)
		}
	}
	return res, nil
}

// FormatChaos renders the grid: one row per (fault, arm, tenant) with the
// three windows' goodput ratio (and attainment), the oracle's during/after
// scores, and the recovery gap.
func FormatChaos(r *chaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-9s %-5s %-5s %8s %8s %8s %9s %9s %8s %8s\n",
		"fault", "arm", "tenant", "tier", "before", "during", "after", "oracle-d", "oracle-a", "shed%%d", "att-d")
	for _, c := range r.cells {
		arm := "untiered"
		if c.tiered {
			arm = "tiered"
		}
		for _, t := range c.tenants {
			fmt.Fprintf(&b, "%-9s %-9s %-5s %5d %8.4f %8.4f %8.4f %9.4f %9.4f %8.1f %8.4f\n",
				c.fault, arm, t.name, t.tier,
				t.before.goodputRatio, t.during.goodputRatio, t.after.goodputRatio,
				t.oracleDuring.goodputRatio, t.oracleAfter.goodputRatio,
				t.during.shedPct, t.during.attainment)
		}
	}
	b.WriteString("\ngoodput ratio = on-time completions / offered load (admitted + shed);\n")
	b.WriteString("att-d = SLO attainment of the admitted population during the fault;\n")
	b.WriteString("oracle-d reruns the cell with the fault active from t=0 (instant replan),\n")
	b.WriteString("oracle-a is a fault-free run scored in the after window.\n")
	for _, c := range r.cells {
		if c.tiered {
			fmt.Fprintf(&b, "%s events: %s\n", c.fault, strings.Join(c.events, "; "))
		}
	}
	return b.String()
}
