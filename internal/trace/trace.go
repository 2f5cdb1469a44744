// Package trace generates the query workloads used in the evaluation.
//
// The paper drives the traffic-analysis pipeline with one day of the
// Microsoft Azure Functions trace and the social-media pipeline with the
// 2018 Twitter streaming trace, in both cases using only the aggregated
// arrival counts and rescaling them to cluster capacity with
// shape-preserving transformations (§6.1). Neither trace ships with this
// repository, so AzureLike and TwitterLike synthesize arrival-rate series
// with the same gross shape (diurnal swing between a low off-peak and a high
// peak, with noise/bursts), and ScaleToPeak performs the same
// shape-preserving rescaling. Within each interval arrivals are Poisson, the
// standard open-loop model.
package trace

import (
	"math"
	"math/rand"
)

// Trace is a demand series: QPS[i] is the mean arrival rate during the i-th
// interval of length Interval seconds.
type Trace struct {
	Interval float64 // seconds per step
	QPS      []float64
}

// Duration returns the total trace duration in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.QPS)) * t.Interval }

// Peak returns the maximum rate in the trace.
func (t *Trace) Peak() float64 {
	p := 0.0
	for _, q := range t.QPS {
		if q > p {
			p = q
		}
	}
	return p
}

// min returns the minimum rate in the trace.
func (t *Trace) min() float64 {
	if len(t.QPS) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, q := range t.QPS {
		if q < m {
			m = q
		}
	}
	return m
}

// RateAt returns the demand at absolute time ts (seconds from trace start),
// clamping beyond-the-end queries to the final interval.
func (t *Trace) RateAt(ts float64) float64 {
	if len(t.QPS) == 0 {
		return 0
	}
	i := int(ts / t.Interval)
	if i < 0 {
		i = 0
	}
	if i >= len(t.QPS) {
		i = len(t.QPS) - 1
	}
	return t.QPS[i]
}

// ScaleToPeak returns a shape-preserving rescaling of the trace so its peak
// equals peak (the §6.1 transformation that fits a public trace to the
// capacity of a 20-server cluster).
func (t *Trace) ScaleToPeak(peak float64) *Trace {
	cur := t.Peak()
	out := &Trace{Interval: t.Interval, QPS: make([]float64, len(t.QPS))}
	if cur == 0 {
		return out
	}
	f := peak / cur
	for i, q := range t.QPS {
		out.QPS[i] = q * f
	}
	return out
}

// WithSpike returns a copy with a multiplicative burst overlaid: rates in
// the window [startFrac, startFrac+durFrac) of the trace (fractions of its
// duration, clamped to [0,1]) are multiplied by mult. It synthesizes
// flash-crowd contention scenarios on a shared pool: one pipeline spikes
// while its neighbours' demand stays put.
func (t *Trace) WithSpike(startFrac, durFrac, mult float64) *Trace {
	clamp := func(x float64) float64 { return math.Min(1, math.Max(0, x)) }
	startFrac = clamp(startFrac)
	endFrac := clamp(startFrac + durFrac)
	out := &Trace{Interval: t.Interval, QPS: append([]float64(nil), t.QPS...)}
	n := float64(len(t.QPS))
	for i := range out.QPS {
		x := float64(i) / n
		if x >= startFrac && x < endFrac {
			out.QPS[i] *= mult
		}
	}
	return out
}

// Diurnal synthesizes a deterministic day/night demand cycle: the rate
// swings sinusoidally between trough and peak, starting at the trough and
// completing `periods` full cycles over the trace. Unlike AzureLike it is
// noise-free and exactly periodic, which makes it the reference workload for
// seasonal forecasters (the cycle is learnable, so a prediction-driven
// control plane should lead every rising edge).
func Diurnal(steps int, interval, trough, peak float64, periods int) *Trace {
	if periods < 1 {
		periods = 1
	}
	t := &Trace{Interval: interval, QPS: make([]float64, steps)}
	for i := range t.QPS {
		x := float64(i) / float64(steps)
		t.QPS[i] = trough + (peak-trough)*0.5*(1-math.Cos(2*math.Pi*float64(periods)*x))
	}
	return t
}

// FlashCrowd synthesizes a flash-crowd workload: a flat base rate with a
// sudden mult× burst over the window [startFrac, startFrac+durFrac) of the
// trace — the unforecastable-onset scenario a proactive control plane must
// survive by reacting to the first elevated samples instead of the smoothed
// estimate.
func FlashCrowd(base float64, steps int, interval, startFrac, durFrac, mult float64) *Trace {
	t := &Trace{Interval: interval, QPS: make([]float64, steps)}
	for i := range t.QPS {
		t.QPS[i] = base
	}
	// The window is resolved to whole steps up front (unlike WithSpike's
	// per-step fraction test) so the burst width is exactly
	// round(durFrac·steps) intervals, immune to float rounding at the edges.
	start := int(math.Round(startFrac * float64(steps)))
	end := start + int(math.Round(durFrac*float64(steps)))
	for i := start; i < end && i < steps; i++ {
		if i >= 0 {
			t.QPS[i] *= mult
		}
	}
	return t
}

// Ramp returns a linear ramp from startQPS to endQPS over steps intervals —
// the demand pattern of Figure 1's capacity walkthrough.
func Ramp(startQPS, endQPS float64, steps int, interval float64) *Trace {
	t := &Trace{Interval: interval, QPS: make([]float64, steps)}
	for i := range t.QPS {
		f := 0.0
		if steps > 1 {
			f = float64(i) / float64(steps-1)
		}
		t.QPS[i] = startQPS + f*(endQPS-startQPS)
	}
	return t
}

// AzureLike synthesizes a diurnal arrival-rate series shaped like one day of
// the Azure Functions trace: a deep overnight trough, a broad daytime
// plateau with two peaks (late morning, evening) and multiplicative noise.
// steps intervals of the given length cover one simulated "day" regardless
// of wall duration, so short experiments keep the full shape.
func AzureLike(seed int64, steps int, interval float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{Interval: interval, QPS: make([]float64, steps)}
	for i := range t.QPS {
		x := float64(i) / float64(steps) // position within the day [0,1)
		// Base diurnal swing: deep overnight trough (≈0.08 of peak) at the
		// start of the trace, plateau through the day.
		base := 0.50 - 0.42*math.Cos(2*math.Pi*x)
		// Two extra peaks: late morning and evening.
		base += 0.26 * gauss(x, 0.45, 0.06)
		base += 0.31 * gauss(x, 0.72, 0.05)
		noise := 1 + 0.05*rng.NormFloat64()
		if noise < 0.7 {
			noise = 0.7
		}
		t.QPS[i] = math.Max(0.02, base*noise)
	}
	return t
}

// TwitterLike synthesizes a diurnal series shaped like the Twitter streaming
// trace: a single broad daily peak plus short bursts (viral events).
func TwitterLike(seed int64, steps int, interval float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{Interval: interval, QPS: make([]float64, steps)}
	// Pre-place a few bursts.
	type burst struct {
		at, width, height float64
	}
	var bursts []burst
	for b := 0; b < 3; b++ {
		bursts = append(bursts, burst{
			at:     0.25 + 0.6*rng.Float64(),
			width:  0.008 + 0.012*rng.Float64(),
			height: 0.25 + 0.30*rng.Float64(),
		})
	}
	for i := range t.QPS {
		x := float64(i) / float64(steps)
		base := 0.50 - 0.42*math.Cos(2*math.Pi*x)
		for _, b := range bursts {
			base += b.height * gauss(x, b.at, b.width)
		}
		noise := 1 + 0.06*rng.NormFloat64()
		if noise < 0.65 {
			noise = 0.65
		}
		t.QPS[i] = math.Max(0.02, base*noise)
	}
	return t
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

// Arrivals samples Poisson arrival timestamps (seconds from trace start)
// over the whole trace: within interval i, inter-arrival gaps are
// exponential with rate QPS[i].
func (t *Trace) Arrivals(rng *rand.Rand) []float64 {
	var out []float64
	for i, rate := range t.QPS {
		if rate <= 0 {
			continue
		}
		start := float64(i) * t.Interval
		end := start + t.Interval
		at := start
		for {
			at += rng.ExpFloat64() / rate
			if at >= end {
				break
			}
			out = append(out, at)
		}
	}
	return out
}

// EWMA is the exponentially weighted moving average demand estimator the
// Resource Manager uses on recent demand history (§4.2).
type EWMA struct {
	Alpha float64 // smoothing weight of the newest observation, in (0,1]
	val   float64
	init  bool
}

// Observe folds one demand observation into the estimate.
func (e *EWMA) Observe(x float64) {
	if !e.init {
		e.val = x
		e.init = true
		return
	}
	e.val = e.Alpha*x + (1-e.Alpha)*e.val
}

// Value returns the current estimate (zero before any observation).
func (e *EWMA) Value() float64 { return e.val }
