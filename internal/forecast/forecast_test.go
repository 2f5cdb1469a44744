package forecast

import (
	"math"
	"testing"
)

// Last is a persistence model: every horizon predicts the latest sample.
func TestLastIsPersistence(t *testing.T) {
	var l Last
	if got := l.Predict(10); got != 0 {
		t.Fatalf("Predict before any observation = %v, want 0", got)
	}
	l.Observe(1, 120)
	l.Observe(2, 80)
	for _, h := range []float64{0, 1, 10, 1000} {
		if got := l.Predict(h); got != 80 {
			t.Fatalf("Predict(%v) = %v, want 80", h, got)
		}
	}
}

// Trend must recover an exactly linear ramp: the regression line through
// noiseless ramp samples extrapolates to the true future value.
func TestTrendRecoversLinearRamp(t *testing.T) {
	tr := &Trend{Window: 20}
	const a, b = 40.0, 2.5 // rate = a + b·t
	for i := 0; i <= 60; i++ {
		ti := float64(i)
		tr.Observe(ti, a+b*ti)
	}
	for _, h := range []float64{0, 1, 5, 10, 30} {
		want := a + b*(60+h)
		got := tr.Predict(h)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("Predict(%v) = %v, want %v (ramp not recovered)", h, got, want)
		}
	}
}

// A downward trend never predicts a negative rate.
func TestTrendClampsAtZero(t *testing.T) {
	tr := &Trend{Window: 10}
	for i := 0; i < 10; i++ {
		tr.Observe(float64(i), math.Max(0, 100-20*float64(i)))
	}
	if got := tr.Predict(100); got != 0 {
		t.Fatalf("deep extrapolation of a decaying series = %v, want clamp to 0", got)
	}
}

// Seasonal Holt-Winters converges on a synthetic sine: after several periods
// of history, horizon-ahead predictions track the wave within a fraction of
// its amplitude (a persistence forecast is off by up to the full peak-to-peak
// swing at a quarter-period horizon).
func TestHoltWintersConvergesOnSine(t *testing.T) {
	const (
		period = 60
		mean   = 200.0
		amp    = 80.0
	)
	rate := func(i int) float64 {
		return mean + amp*math.Sin(2*math.Pi*float64(i)/period)
	}
	hw := &HoltWinters{Period: period}
	n := 10 * period
	for i := 0; i < n; i++ {
		hw.Observe(float64(i), rate(i))
	}
	// Mean absolute error of predictions across a whole future period, at a
	// quarter-period horizon — where persistence is at its worst.
	const horizon = period / 4
	mae := 0.0
	persist := 0.0
	for k := 0; k < period; k++ {
		hw2 := &HoltWinters{Period: period}
		for i := 0; i < n+k; i++ {
			hw2.Observe(float64(i), rate(i))
		}
		truth := rate(n + k - 1 + horizon)
		mae += math.Abs(hw2.Predict(horizon) - truth)
		persist += math.Abs(rate(n+k-1) - truth)
	}
	mae /= period
	persist /= period
	if mae > 0.25*amp {
		t.Fatalf("seasonal HW MAE %.2f exceeds tolerance %.2f (amplitude %.0f)", mae, 0.25*amp, amp)
	}
	if mae >= persist {
		t.Fatalf("seasonal HW MAE %.2f is no better than persistence %.2f", mae, persist)
	}
}

// Trend-only Holt-Winters reacts to a step: within a few samples of a flash
// crowd the horizon prediction overshoots the reactive estimate toward (or
// past) the new level.
func TestHoltWintersChasesStep(t *testing.T) {
	hw := &HoltWinters{}
	for i := 0; i < 60; i++ {
		hw.Observe(float64(i), 100)
	}
	if got := hw.Predict(10); math.Abs(got-100) > 1e-6 {
		t.Fatalf("steady state Predict = %v, want 100", got)
	}
	hw.Observe(60, 300)
	hw.Observe(61, 300)
	if got := hw.Predict(10); got < 250 {
		t.Fatalf("two samples into a 3x step, Predict(10) = %v, want ≥ 250 (proactive overshoot)", got)
	}
}

// Envelope headroom is monotone: a larger headroom never predicts less, and
// any headroom stays above the raw envelope.
func TestEnvelopeHeadroomMonotone(t *testing.T) {
	mk := func(head float64) *Envelope {
		base := &Trend{Window: 10}
		for i := 0; i < 10; i++ {
			base.Observe(float64(i), 50+10*float64(i))
		}
		return &Envelope{Base: base, Headroom: head}
	}
	prev := -1.0
	for _, head := range []float64{0, 0.05, 0.1, 0.3, 1.0} {
		got := mk(head).Predict(10)
		if got < prev {
			t.Fatalf("headroom %.2f predicts %v < previous %v (not monotone)", head, got, prev)
		}
		if raw := mk(0).Predict(10); got < raw-1e-9 {
			t.Fatalf("headroom %.2f predicts %v below raw envelope %v", head, got, raw)
		}
		prev = got
	}
}

// The envelope takes the max over the window, not the endpoint: with a base
// model that peaks mid-window, Predict returns the crest.
func TestEnvelopeTakesWindowMax(t *testing.T) {
	// A decaying trend: current level high, endpoint lower.
	base := &Trend{Window: 5}
	for i := 0; i < 5; i++ {
		base.Observe(float64(i), 500-50*float64(i))
	}
	env := &Envelope{Base: base}
	if got, now := env.Predict(10), base.Predict(0); got < now {
		t.Fatalf("envelope %v below current level %v: window max must include now", got, now)
	}
}

// Envelope(Last) with zero headroom is the identity — the bit-for-bit
// parity guarantee behind the public default.
func TestEnvelopeOfLastIsIdentity(t *testing.T) {
	env := &Envelope{Base: &Last{}}
	env.Observe(1, 123.456)
	env.Observe(2, 78.9)
	for _, h := range []float64{0, 1, 10, 60} {
		if got := env.Predict(h); got != 78.9 {
			t.Fatalf("Envelope(Last).Predict(%v) = %v, want exactly 78.9", h, got)
		}
	}
}
