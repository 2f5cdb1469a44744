package experiments

import (
	"fmt"
	"math"
	"strings"

	"loki/internal/core"
	"loki/internal/forecast"
	"loki/internal/metrics"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/trace"
)

// ForecastConfig describes the proactive-provisioning experiment: the same
// pipeline serves a flash-crowd trace and a diurnal trace, once reactively
// (no forecaster — today's control plane) and once per forecaster, and the
// runs are compared on SLO attainment inside the stress window. Model-swap
// pauses are on (SwapSec), because the cost the forecaster avoids is paying
// those pauses at the spike crest instead of during the ramp.
type ForecastConfig struct {
	Servers    int
	SLOSec     float64
	Seed       int64
	TraceSteps int
	StepSec    float64
	// BaseQPS and SpikeMult shape the flash-crowd trace: a flat base with a
	// sudden SpikeMult× burst over [SpikeStart, SpikeStart+SpikeDur) of the
	// run (fractions).
	BaseQPS              float64
	SpikeMult            float64
	SpikeStart, SpikeDur float64
	// TroughQPS/PeakQPS/Periods shape the diurnal trace.
	TroughQPS, PeakQPS float64
	Periods            int
	// Season is the Holt-Winters seasonal period, in per-second samples,
	// used on the diurnal scenario (zero means one diurnal cycle:
	// TraceSteps×StepSec/Periods). The flash-crowd scenario always runs
	// season-free — a one-off burst has no cycle to learn, and a seasonal
	// model would still be in its first-period warmup when the burst hits.
	Season int
	// SwapSec is the model-load pause when a worker changes variant.
	SwapSec float64
	// HorizonSec and Headroom configure the forecasters' envelope.
	HorizonSec float64
	Headroom   float64
}

func (c *ForecastConfig) defaults() {
	if c.Servers == 0 {
		c.Servers = 20
	}
	if c.SLOSec == 0 {
		c.SLOSec = 0.250
	}
	if c.TraceSteps == 0 {
		c.TraceSteps = 36
	}
	if c.StepSec == 0 {
		c.StepSec = 10
	}
	if c.BaseQPS == 0 {
		c.BaseQPS = 200
	}
	if c.SpikeMult == 0 {
		c.SpikeMult = 3
	}
	if c.SpikeStart == 0 {
		c.SpikeStart = 0.4
	}
	if c.SpikeDur == 0 {
		c.SpikeDur = 0.25
	}
	if c.TroughQPS == 0 {
		c.TroughQPS = 60
	}
	if c.PeakQPS == 0 {
		c.PeakQPS = 520
	}
	if c.Periods == 0 {
		c.Periods = 2
	}
	if c.SwapSec == 0 {
		c.SwapSec = 0.5
	}
	if c.HorizonSec == 0 {
		c.HorizonSec = core.DefaultForecastHorizonSec
	}
	if c.Headroom == 0 {
		c.Headroom = 0.10
	}
	if c.Season == 0 {
		c.Season = int(float64(c.TraceSteps) * c.StepSec / float64(c.Periods))
	}
}

// ForecastOutcome is one (trace, forecaster) serving run.
type ForecastOutcome struct {
	Name    string // reactive, trend, holtwinters
	Summary metrics.Summary
	// WindowAttainment is the SLO attainment (1 - violation ratio) over the
	// stress window only: the burst steps of the flash-crowd trace, the
	// whole run for the diurnal trace.
	WindowAttainment float64
	// WindowArrivals counts requests arriving inside the window.
	WindowArrivals int
	// ForecastMAE is the offline mean absolute error of the forecaster's
	// horizon-ahead predictions against the trace's true rates, over the
	// whole trace (persistence error for the reactive baseline).
	ForecastMAE float64
}

// ForecastResult is one scenario (trace shape) of the experiment.
type ForecastResult struct {
	Scenario                     string // flash-crowd or diurnal
	WindowStartSec, WindowEndSec float64
	Outcomes                     []ForecastOutcome
}

// forecasterSpec names one forecaster under test. build constructs the
// serving instance (envelope-wrapped, what the control plane plans against);
// point constructs the raw model for offline accuracy scoring — the envelope
// is deliberately biased high (window max plus headroom), so scoring it on
// MAE would punish exactly the asymmetry that makes it a good planning
// signal. Fresh instances each call: serving and evaluation must not share
// model state.
type forecasterSpec struct {
	name  string
	build func() forecast.Forecaster
	point func() forecast.Forecaster
}

// specs builds the forecaster roster for one scenario; season is the
// Holt-Winters period in samples (0 = trend-only Holt).
func (cfg *ForecastConfig) specs(season int) []forecasterSpec {
	envelope := func(base forecast.Forecaster) forecast.Forecaster {
		return &forecast.Envelope{Base: base, HorizonSec: cfg.HorizonSec, Headroom: cfg.Headroom}
	}
	return []forecasterSpec{
		{
			"reactive",
			func() forecast.Forecaster { return nil },
			func() forecast.Forecaster { return &forecast.Last{} },
		},
		{
			"trend",
			func() forecast.Forecaster { return envelope(&forecast.Trend{}) },
			func() forecast.Forecaster { return &forecast.Trend{} },
		},
		{
			"holtwinters",
			func() forecast.Forecaster { return envelope(&forecast.HoltWinters{Period: season}) },
			func() forecast.Forecaster { return &forecast.HoltWinters{Period: season} },
		},
	}
}

// Forecast runs the proactive-provisioning comparison on the discrete-event
// simulator: for each trace shape, the identical workload is served once per
// forecaster (the reactive baseline is a nil forecaster — the unchanged
// control plane), and SLO attainment inside the stress window plus offline
// forecast error are reported. Deterministic for a fixed seed.
func Forecast(cfg ForecastConfig) ([]*ForecastResult, error) {
	cfg.defaults()
	dur := float64(cfg.TraceSteps) * cfg.StepSec

	flash := trace.FlashCrowd(cfg.BaseQPS, cfg.TraceSteps, cfg.StepSec, cfg.SpikeStart, cfg.SpikeDur, cfg.SpikeMult)
	diurnal := trace.Diurnal(cfg.TraceSteps, cfg.StepSec, cfg.TroughQPS, cfg.PeakQPS, cfg.Periods)

	scenarios := []struct {
		name       string
		tr         *trace.Trace
		start, end float64
		season     int
	}{
		{
			name: "flash-crowd",
			tr:   flash,
			// Mirror trace.FlashCrowd's step arithmetic exactly — the burst
			// spans [Round(start·steps), Round(start·steps)+Round(dur·steps))
			// — so the attainment window never misaligns with the burst for
			// fractions whose sum rounds differently than their parts.
			start: math.Round(cfg.SpikeStart*float64(cfg.TraceSteps)) * cfg.StepSec,
			end: (math.Round(cfg.SpikeStart*float64(cfg.TraceSteps)) +
				math.Round(cfg.SpikeDur*float64(cfg.TraceSteps))) * cfg.StepSec,
		},
		{name: "diurnal", tr: diurnal, start: 0, end: dur, season: cfg.Season},
	}

	var out []*ForecastResult
	for _, sc := range scenarios {
		res := &ForecastResult{Scenario: sc.name, WindowStartSec: sc.start, WindowEndSec: sc.end}
		for _, spec := range cfg.specs(sc.season) {
			sum, win, arr, err := serveWithForecaster(&cfg, sc.tr, spec.build(), sc.start, sc.end)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", sc.name, spec.name, err)
			}
			res.Outcomes = append(res.Outcomes, ForecastOutcome{
				Name:             spec.name,
				Summary:          sum,
				WindowAttainment: win,
				WindowArrivals:   arr,
				ForecastMAE:      offlineMAE(spec.point(), sc.tr, cfg.HorizonSec),
			})
		}
		out = append(out, res)
	}
	return out, nil
}

// serveWithForecaster plays one trace through a fresh single-tenant stack
// with the given forecaster installed (nil = reactive) and returns the run
// summary plus SLO attainment and arrivals over [winStart, winEnd).
func serveWithForecaster(cfg *ForecastConfig, tr *trace.Trace, fc forecast.Forecaster, winStart, winEnd float64) (metrics.Summary, float64, int, error) {
	s, err := serve(RunConfig{
		Servers: cfg.Servers, SLOSec: cfg.SLOSec, Seed: cfg.Seed, SwapLatencySec: cfg.SwapSec,
		// Buckets aligned to the trace step so the spike window cuts cleanly.
		BucketSec: cfg.StepSec,
	}, []stack.Spec{{
		Name: "pipeline", Graph: profiles.TrafficTree(), Forecaster: fc, HorizonSec: cfg.HorizonSec,
	}}, []*trace.Trace{tr}, nil)
	if err != nil {
		return metrics.Summary{}, 0, 0, err
	}
	col := s.Tenants[0].Col
	w := window(col.Series(), winStart, winEnd)
	return col.Summarize(), w.attainment(), w.arrivals, nil
}

// offlineMAE replays the trace's true per-second rates through a fresh
// point forecaster and scores its horizon-ahead predictions against the
// rates that actually followed — the forecast-accuracy half of the
// experiment, decoupled from serving noise. The reactive baseline is scored
// as persistence (predict the current rate), which is exactly what the
// reactive control plane implicitly assumes.
func offlineMAE(fc forecast.Forecaster, tr *trace.Trace, horizonSec float64) float64 {
	dur := tr.Duration()
	n := 0
	sum := 0.0
	for t := 0.0; t+horizonSec < dur; t++ {
		fc.Observe(t, tr.RateAt(t))
		sum += math.Abs(fc.Predict(horizonSec) - tr.RateAt(t+horizonSec))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormatForecast renders the experiment: one table per scenario comparing
// reactive and proactive runs on window attainment, whole-run violations,
// accuracy, servers, and offline forecast error.
func FormatForecast(results []*ForecastResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s (stress window %.0fs-%.0fs):\n", r.Scenario, r.WindowStartSec, r.WindowEndSec)
		fmt.Fprintf(&b, "  %-12s %12s %12s %10s %10s %8s %12s\n",
			"forecaster", "window-slo", "window-arr", "run-viol", "accuracy", "servers", "forecast-mae")
		for _, o := range r.Outcomes {
			fmt.Fprintf(&b, "  %-12s %12.4f %12d %10.4f %10.4f %8.1f %12.1f\n",
				o.Name, o.WindowAttainment, o.WindowArrivals,
				o.Summary.ViolationRatio, o.Summary.MeanAccuracy, o.Summary.MeanServers, o.ForecastMAE)
		}
		base := r.Outcomes[0]
		for _, o := range r.Outcomes[1:] {
			fmt.Fprintf(&b, "  %s vs %s: window SLO %.4f -> %.4f (%+.4f)\n",
				o.Name, base.Name, base.WindowAttainment, o.WindowAttainment,
				o.WindowAttainment-base.WindowAttainment)
		}
		b.WriteString("\n")
	}
	return b.String()
}
