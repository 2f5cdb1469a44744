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
// pauses are on (forecastSwapSec), because the cost the forecaster avoids is
// paying those pauses at the spike crest instead of during the ramp.
type ForecastConfig struct {
	Servers    int
	SLOSec     float64
	Seed       int64
	TraceSteps int
}

func (c *ForecastConfig) defaults() {
	if c.TraceSteps == 0 {
		c.TraceSteps = 36
	}
}

// The forecast scenarios, on traces of 10 s steps. The flash-crowd trace is a flat 200 qps with a
// sudden 3× burst over [0.4, 0.65) of the run; the diurnal trace swings
// between 60 and 520 qps over two periods. Workers pause half a second to
// load a model, and every forecaster plans through an envelope of the
// control plane's default horizon plus 10% headroom.
const (
	forecastStepSec    = 10
	forecastBaseQPS    = 200
	forecastSpikeMult  = 3
	forecastSpikeStart = 0.4
	forecastSpikeDur   = 0.25
	forecastTroughQPS  = 60
	forecastPeakQPS    = 520
	forecastPeriods    = 2
	forecastSwapSec    = 0.5
	forecastHorizonSec = core.DefaultForecastHorizonSec
	forecastHeadroom   = 0.10
)

// forecastOutcome is one (trace, forecaster) serving run.
type forecastOutcome struct {
	name    string // reactive, trend, holtwinters
	summary metrics.Summary
	// windowAttainment is the SLO attainment (1 - violation ratio) over the
	// stress window only: the burst steps of the flash-crowd trace, the
	// whole run for the diurnal trace.
	windowAttainment float64
	// windowArrivals counts requests arriving inside the window.
	windowArrivals int
	// forecastMAE is the offline mean absolute error of the forecaster's
	// horizon-ahead predictions against the trace's true rates, over the
	// whole trace (persistence error for the reactive baseline).
	forecastMAE float64
}

// forecastResult is one scenario (trace shape) of the experiment.
type forecastResult struct {
	scenario                     string // flash-crowd or diurnal
	windowStartSec, windowEndSec float64
	outcomes                     []forecastOutcome
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

// forecasters builds the forecaster roster for one scenario; season is the
// Holt-Winters period in samples (0 = trend-only Holt).
func forecasters(season int) []forecasterSpec {
	envelope := func(base forecast.Forecaster) forecast.Forecaster {
		return &forecast.Envelope{Base: base, Headroom: forecastHeadroom}
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
func Forecast(cfg ForecastConfig) ([]*forecastResult, error) {
	cfg.defaults()
	dur := float64(cfg.TraceSteps) * forecastStepSec

	flash := trace.FlashCrowd(forecastBaseQPS, cfg.TraceSteps, forecastStepSec, forecastSpikeStart, forecastSpikeDur, forecastSpikeMult)
	diurnal := trace.Diurnal(cfg.TraceSteps, forecastStepSec, forecastTroughQPS, forecastPeakQPS, forecastPeriods)
	// The Holt-Winters season on the diurnal trace is one cycle, in
	// per-second samples. The flash-crowd scenario always runs season-free —
	// a one-off burst has no cycle to learn, and a seasonal model would still
	// be in its first-period warmup when the burst hits.
	season := int(dur / forecastPeriods)

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
			start: math.Round(forecastSpikeStart*float64(cfg.TraceSteps)) * forecastStepSec,
			end: (math.Round(forecastSpikeStart*float64(cfg.TraceSteps)) +
				math.Round(forecastSpikeDur*float64(cfg.TraceSteps))) * forecastStepSec,
		},
		{name: "diurnal", tr: diurnal, start: 0, end: dur, season: season},
	}

	var out []*forecastResult
	for _, sc := range scenarios {
		res := &forecastResult{scenario: sc.name, windowStartSec: sc.start, windowEndSec: sc.end}
		for _, spec := range forecasters(sc.season) {
			sum, win, arr, err := serveWithForecaster(&cfg, sc.tr, spec.build(), sc.start, sc.end)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", sc.name, spec.name, err)
			}
			res.outcomes = append(res.outcomes, forecastOutcome{
				name:             spec.name,
				summary:          sum,
				windowAttainment: win,
				windowArrivals:   arr,
				forecastMAE:      offlineMAE(spec.point(), sc.tr, forecastHorizonSec),
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
		Servers: cfg.Servers, sloSec: cfg.SLOSec, Seed: cfg.Seed, swapLatencySec: forecastSwapSec,
		// Buckets aligned to the trace step so the spike window cuts cleanly.
		bucketSec: forecastStepSec,
	}, []stack.Spec{{
		Name: "pipeline", Graph: profiles.TrafficTree(), Forecaster: fc, HorizonSec: forecastHorizonSec,
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
func FormatForecast(results []*forecastResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s (stress window %.0fs-%.0fs):\n", r.scenario, r.windowStartSec, r.windowEndSec)
		fmt.Fprintf(&b, "  %-12s %12s %12s %10s %10s %8s %12s\n",
			"forecaster", "window-slo", "window-arr", "run-viol", "accuracy", "servers", "forecast-mae")
		for _, o := range r.outcomes {
			fmt.Fprintf(&b, "  %-12s %12.4f %12d %10.4f %10.4f %8.1f %12.1f\n",
				o.name, o.windowAttainment, o.windowArrivals,
				o.summary.ViolationRatio, o.summary.MeanAccuracy, o.summary.MeanServers, o.forecastMAE)
		}
		base := r.outcomes[0]
		for _, o := range r.outcomes[1:] {
			fmt.Fprintf(&b, "  %s vs %s: window SLO %.4f -> %.4f (%+.4f)\n",
				o.name, base.name, base.windowAttainment, o.windowAttainment,
				o.windowAttainment-base.windowAttainment)
		}
		b.WriteString("\n")
	}
	return b.String()
}
