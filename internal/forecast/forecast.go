// Package forecast predicts near-future demand from an observed arrival-rate
// series, the missing half of a proactive control plane. The reactive
// Resource Manager plans against a smoothed estimate of *current* demand, so
// every spike is absorbed as drops until the estimator catches up and the
// swapped-in capacity finishes warming; InferLine (Crankshaw et al.) showed
// that planning against a predicted envelope of the next planning period is
// what lets tight-latency pipelines survive bursts. The models here are
// deliberately small and deterministic: an identity forecaster that
// reproduces reactive behavior exactly, a sliding-window linear trend, and
// Holt-Winters exponential smoothing for diurnal traces, plus the
// InferLine-style Envelope combinator that takes the max prediction over the
// planning horizon with a configurable headroom factor.
//
// Implementations are not safe for concurrent use; the MetadataStore (the
// one shared consumer) serializes Observe and Predict under its own lock.
package forecast

import "math"

// Forecaster is a demand-prediction model. Observe folds one rate sample,
// taken at time t (seconds on the caller's clock), into the model; Predict
// extrapolates the rate `horizon` seconds past the most recent observation.
// A horizon of zero asks for the model's current level, and predictions are
// never negative.
type Forecaster interface {
	// Observe folds a rate sample taken at time t into the model. Times must
	// be non-decreasing across calls.
	Observe(t, rate float64)
	// Predict returns the forecast rate `horizon` seconds after the latest
	// observation (clamped to zero from below). Before any observation it
	// returns 0.
	Predict(horizon float64) float64
}

// Last is the identity forecaster: it predicts that demand stays at the most
// recently observed value, for every horizon. Planning against it reproduces
// the reactive control plane bit for bit — it exists so "no forecasting" and
// "forecasting disabled" are the same code path.
type Last struct {
	val float64
}

// Observe records the sample; the time is irrelevant to a persistence model.
func (l *Last) Observe(t, rate float64) { l.val = rate }

// Predict returns the last observed rate unchanged, whatever the horizon.
func (l *Last) Predict(horizon float64) float64 { return l.val }

// defaultTrendWindow is the sliding-window length (in samples) a Trend
// forecaster uses when Window is zero. With per-second observations it spans
// half a minute — long enough to average sampling noise, short enough that a
// flash crowd dominates the fit within a few seconds.
const defaultTrendWindow = 30

// Trend predicts by least-squares linear regression over a sliding window of
// recent samples: the fitted line is extrapolated to the prediction instant.
// On an exactly linear ramp the prediction is exact; on a step change the
// fresh samples swing the slope within a few observations, which is what
// makes it useful as a cheap spike detector.
type Trend struct {
	// Window is the number of recent samples regressed over (0 means
	// defaultTrendWindow).
	Window int

	ts, xs []float64
	a, b   float64 // cached fit: rate ≈ a + b·t
}

// Observe appends the sample to the window and refreshes the cached fit.
func (tr *Trend) Observe(t, rate float64) {
	w := tr.Window
	if w <= 0 {
		w = defaultTrendWindow
	}
	if len(tr.ts) >= w {
		n := copy(tr.ts, tr.ts[len(tr.ts)-w+1:])
		tr.ts = tr.ts[:n]
		n = copy(tr.xs, tr.xs[len(tr.xs)-w+1:])
		tr.xs = tr.xs[:n]
	}
	tr.ts = append(tr.ts, t)
	tr.xs = append(tr.xs, rate)
	tr.refit()
}

// refit recomputes the least-squares line through the window, with the mean
// subtracted first so the normal equations stay well-conditioned for large
// absolute times.
func (tr *Trend) refit() {
	n := float64(len(tr.ts))
	mt, mx := 0.0, 0.0
	for i := range tr.ts {
		mt += tr.ts[i]
		mx += tr.xs[i]
	}
	mt /= n
	mx /= n
	stt, stx := 0.0, 0.0
	for i := range tr.ts {
		dt := tr.ts[i] - mt
		stt += dt * dt
		stx += dt * (tr.xs[i] - mx)
	}
	if stt == 0 {
		// One sample, or all samples at one instant: flat line.
		tr.a, tr.b = mx, 0
		return
	}
	tr.b = stx / stt
	tr.a = mx - tr.b*mt
}

// Predict extrapolates the fitted line `horizon` seconds past the latest
// sample. With fewer than two samples it degrades to persistence.
func (tr *Trend) Predict(horizon float64) float64 {
	if len(tr.ts) == 0 {
		return 0
	}
	if len(tr.ts) == 1 {
		return math.Max(0, tr.xs[0])
	}
	return math.Max(0, tr.a+tr.b*(tr.ts[len(tr.ts)-1]+horizon))
}

// The Holt-Winters gains: a fast level (spikes move the forecast within a
// couple of samples), a moderately damped trend, and a slow seasonal update
// (each season slot is revisited only once per period). They are typed so
// that 1-hwAlpha rounds as the float64 subtraction does.
const (
	hwAlpha float64 = 0.45
	hwBeta  float64 = 0.25
	hwGamma float64 = 0.15
)

// HoltWinters is double exponential smoothing (Holt's level + trend method),
// optionally extended to additive triple smoothing when Period is set: the
// model then also learns a repeating seasonal profile of Period samples,
// which fits diurnal traces once a full day of history has streamed in.
// Samples are treated as evenly spaced; the observed spacing is smoothed and
// used to convert Predict's horizon from seconds into sample steps. The
// level, trend and season gains are the constants hwAlpha, hwBeta and
// hwGamma: 0.45, 0.25 and 0.15.
type HoltWinters struct {
	// Period is the season length in samples; 0 disables seasonality
	// (plain Holt's method).
	Period int

	level, trend float64
	season       []float64
	warmup       []float64 // first-period buffer seeding the seasonal profile
	n            int       // samples folded in
	lastT        float64
	dt           float64 // smoothed observation spacing, seconds/sample
}

// Observe folds one sample into the level/trend (and, past the first period,
// seasonal) state. A seasonal model buffers its first full period and seeds
// the seasonal profile from that period's deviations around its mean — the
// textbook initialization; zero-seeded seasons let the cycle leak into the
// trend term, which a multi-step extrapolation then amplifies.
func (h *HoltWinters) Observe(t, rate float64) {
	if h.n == 0 {
		h.level = rate
		h.trend = 0
		h.lastT = t
		h.n = 1
		if h.Period > 1 {
			h.warmup = append(h.warmup, rate)
		}
		return
	}
	if gap := t - h.lastT; gap > 0 {
		if h.dt == 0 {
			h.dt = gap
		} else {
			h.dt += 0.1 * (gap - h.dt)
		}
	}
	h.lastT = t

	if h.warmup != nil {
		// Still collecting the seeding period: run plain persistence on the
		// level so pre-warmup predictions stay sane.
		h.warmup = append(h.warmup, rate)
		h.level = rate
		h.n++
		if len(h.warmup) == h.Period {
			mean := 0.0
			for _, x := range h.warmup {
				mean += x
			}
			mean /= float64(h.Period)
			h.level = mean
			h.trend = 0
			h.season = make([]float64, h.Period)
			for i, x := range h.warmup {
				h.season[i] = x - mean
			}
			h.warmup = nil
		}
		return
	}

	s := 0.0
	si := 0
	if h.season != nil {
		si = h.n % h.Period
		s = h.season[si]
	}
	prev := h.level
	h.level = hwAlpha*(rate-s) + (1-hwAlpha)*(h.level+h.trend)
	h.trend = hwBeta*(h.level-prev) + (1-hwBeta)*h.trend
	if h.season != nil {
		h.season[si] = hwGamma*(rate-h.level) + (1-hwGamma)*s
	}
	h.n++
}

// Predict extrapolates level + trend (plus the seasonal component once a
// full period of history exists) `horizon` seconds ahead.
func (h *HoltWinters) Predict(horizon float64) float64 {
	if h.n == 0 {
		return 0
	}
	dt := h.dt
	if dt <= 0 {
		dt = 1
	}
	k := horizon / dt
	if k < 0 {
		k = 0
	}
	out := h.level + k*h.trend
	if h.season != nil {
		out += h.season[(h.n-1+int(math.Round(k)))%h.Period]
	}
	return math.Max(0, out)
}

// envelopeStepSec is the Envelope's sampling step: the per-second
// housekeeping cadence.
const envelopeStepSec = 1

// Envelope wraps a base forecaster InferLine-style: instead of the point
// prediction at the horizon, Predict returns the *maximum* base prediction
// over the whole window from now to the horizon (sampled every second),
// inflated by the Headroom factor. Planning against the envelope provisions
// for the worst moment of the next planning period, not just its endpoint —
// a prediction that demand ramps up and back down within one period still
// provisions for the crest.
//
// Envelope{Base: &Last{}} with zero Headroom is exactly the identity: the
// max over a constant is the constant.
type Envelope struct {
	// Base supplies the point predictions.
	Base Forecaster
	// Headroom inflates the enveloped prediction by 1+Headroom, the
	// InferLine-style provisioning margin for forecast error.
	Headroom float64
}

// Observe forwards the sample to the base forecaster.
func (e *Envelope) Observe(t, rate float64) { e.Base.Observe(t, rate) }

// Predict returns (1+Headroom) × max of the base prediction over
// [0, horizon] sampled every second, always including both endpoints.
func (e *Envelope) Predict(horizon float64) float64 {
	m := e.Base.Predict(0)
	for s := 0.0; s < horizon; {
		s = min(s+envelopeStepSec, horizon)
		if p := e.Base.Predict(s); p > m {
			m = p
		}
	}
	return (1 + e.Headroom) * m
}
