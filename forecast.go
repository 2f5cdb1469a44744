package loki

import (
	"time"

	"loki/internal/core"
	"loki/internal/forecast"
)

// ForecasterKind selects the demand-prediction model behind WithForecaster
// and WithPipelineForecaster. Every kind is wrapped in the InferLine-style
// envelope by default (max prediction over the planning horizon, inflated by
// WithForecastHeadroom); WithForecastEnvelope(false) exposes the raw point
// prediction instead.
type ForecasterKind int

const (
	// ForecastLast is the persistence model: it predicts that demand stays
	// at the current smoothed estimate. It is the default, and serving with
	// it is bit-for-bit identical to serving without a forecaster — the
	// reactive control plane is the degenerate forecast.
	ForecastLast ForecasterKind = iota
	// ForecastTrend extrapolates a sliding-window linear regression over
	// the smoothed demand signal (window set by WithForecastWindow) —
	// cheap, and swings within a few seconds of a flash-crowd onset.
	ForecastTrend
	// ForecastHoltWinters runs double exponential smoothing (level+trend),
	// extended to triple smoothing with a learned seasonal profile when
	// WithForecastSeason sets a period — the model for diurnal traces.
	ForecastHoltWinters
)

// String names the forecaster kind.
func (k ForecasterKind) String() string {
	switch k {
	case ForecastLast:
		return "last"
	case ForecastTrend:
		return "trend"
	case ForecastHoltWinters:
		return "holtwinters"
	default:
		return "unknown"
	}
}

// forecastConfig is the resolved forecaster selection for a system or one
// pipeline. The zero value means "not configured": the pipeline inherits
// the system default, and a system without one serves reactively.
type forecastConfig struct {
	set         bool
	kind        ForecasterKind
	window      int
	season      int
	headroom    float64
	horizon     time.Duration
	envelopeOff bool
}

// ForecastOption tunes a forecaster selected with WithForecaster or
// WithPipelineForecaster.
type ForecastOption func(*forecastConfig)

// WithForecastWindow sets the ForecastTrend regression window in samples
// (per-second demand reports; default 30).
func WithForecastWindow(n int) ForecastOption {
	return func(c *forecastConfig) { c.window = n }
}

// WithForecastSeason sets the ForecastHoltWinters seasonal period in samples
// (per-second demand reports). Zero, the default, disables seasonality and
// runs plain level+trend smoothing; a diurnal trace wants its cycle length
// here, and needs one full period of history before the seasonal term
// engages.
func WithForecastSeason(n int) ForecastOption {
	return func(c *forecastConfig) { c.season = n }
}

// WithForecastHeadroom inflates the enveloped prediction by 1+h — the
// InferLine-style provisioning margin for forecast error. The default is 0,
// which keeps ForecastLast an exact identity; 0.1 is a reasonable margin for
// real forecasting. Ignored when WithForecastEnvelope is off.
func WithForecastHeadroom(h float64) ForecastOption {
	return func(c *forecastConfig) { c.headroom = h }
}

// WithForecastHorizon sets how far ahead the Resource Manager plans
// (default 10s, its own periodic interval, so each forecast covers exactly
// the window until the next guaranteed re-plan).
func WithForecastHorizon(d time.Duration) ForecastOption {
	return func(c *forecastConfig) { c.horizon = d }
}

// WithForecastEnvelope toggles the envelope combinator (default on): the
// planner sees the maximum prediction over the whole horizon rather than the
// point prediction at its end, so a forecast that crests mid-period still
// provisions for the crest. Off, the raw point prediction is used and
// WithForecastHeadroom is ignored.
func WithForecastEnvelope(on bool) ForecastOption {
	return func(c *forecastConfig) { c.envelopeOff = !on }
}

// WithForecaster installs a demand forecaster: the Resource Manager then
// plans every pipeline against max(current smoothed estimate, predicted
// demand over the planning horizon), so capacity for a predicted spike is
// provisioned — and model-swap pauses are paid — during the ramp rather than
// at the crest. Scale-down deliberately keeps following the smoothed
// estimate (a predicted decay never shrinks capacity early), the hysteresis
// that prevents a jittery forecaster from thrashing the cluster. On a
// MultiSystem the forecasted demand also drives the joint desire pass, so a
// pipeline with a predicted spike claims idle neighbour servers proactively.
//
// The default is ForecastLast, whose predictions equal the smoothed estimate:
// serving behavior is bit-for-bit identical to a system without the option.
// On a MultiSystem this sets the default that WithPipelineForecaster
// overrides per pipeline.
func WithForecaster(kind ForecasterKind, opts ...ForecastOption) Option {
	return func(c *config) { c.tenant.fc = newForecastConfig(kind, opts) }
}

// WithPipelineForecaster sets this pipeline's demand forecaster, overriding
// the system-wide WithForecaster default. See WithForecaster for how
// predictions enter planning.
func WithPipelineForecaster(kind ForecasterKind, opts ...ForecastOption) PipelineOption {
	return func(c *pipelineConfig) { c.fc = newForecastConfig(kind, opts) }
}

func newForecastConfig(kind ForecasterKind, opts []ForecastOption) forecastConfig {
	fc := forecastConfig{set: true, kind: kind}
	for _, o := range opts {
		o(&fc)
	}
	return fc
}

// horizonSec resolves the planning horizon in seconds.
func (fc forecastConfig) horizonSec() float64 {
	if fc.horizon <= 0 {
		return core.DefaultForecastHorizonSec
	}
	return fc.horizon.Seconds()
}

// build constructs a fresh forecaster instance — each pipeline owns its own
// model state — or nil when no forecaster was configured.
func (fc forecastConfig) build() forecast.Forecaster {
	if !fc.set {
		return nil
	}
	var base forecast.Forecaster
	switch fc.kind {
	case ForecastTrend:
		base = &forecast.Trend{Window: fc.window}
	case ForecastHoltWinters:
		base = &forecast.HoltWinters{Period: fc.season}
	default:
		base = &forecast.Last{}
	}
	if fc.envelopeOff {
		return base
	}
	return &forecast.Envelope{Base: base, HorizonSec: fc.horizonSec(), Headroom: fc.headroom}
}
