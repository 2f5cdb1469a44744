package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRampEndpoints(t *testing.T) {
	tr := Ramp(10, 100, 10, 1)
	if tr.QPS[0] != 10 || tr.QPS[9] != 100 {
		t.Fatalf("ramp endpoints %g..%g, want 10..100", tr.QPS[0], tr.QPS[9])
	}
	for i := 1; i < len(tr.QPS); i++ {
		if tr.QPS[i] < tr.QPS[i-1] {
			t.Fatal("ramp not monotone")
		}
	}
}

func TestRampSingleStep(t *testing.T) {
	tr := Ramp(5, 50, 1, 1)
	if len(tr.QPS) != 1 || tr.QPS[0] != 5 {
		t.Fatalf("single-step ramp = %v", tr.QPS)
	}
}

func TestScaleToPeak(t *testing.T) {
	tr := AzureLike(1, 288, 300)
	scaled := tr.ScaleToPeak(1500)
	if math.Abs(scaled.Peak()-1500) > 1e-9 {
		t.Fatalf("peak = %g, want 1500", scaled.Peak())
	}
	// Shape preserved: ratios unchanged.
	f := scaled.QPS[10] / tr.QPS[10]
	for i := range tr.QPS {
		if math.Abs(scaled.QPS[i]/tr.QPS[i]-f) > 1e-9 {
			t.Fatalf("shape not preserved at %d", i)
		}
	}
}

func TestAzureLikeHasDiurnalSwing(t *testing.T) {
	tr := AzureLike(7, 288, 300).ScaleToPeak(1000)
	ratio := tr.Peak() / tr.min()
	if ratio < 3 {
		t.Fatalf("peak/trough = %.2f, want a pronounced diurnal swing (>3)", ratio)
	}
}

func TestTwitterLikeHasDiurnalSwing(t *testing.T) {
	tr := TwitterLike(7, 288, 300).ScaleToPeak(1000)
	if ratio := tr.Peak() / tr.min(); ratio < 3 {
		t.Fatalf("peak/trough = %.2f, want > 3", ratio)
	}
}

func TestTracesAreDeterministicPerSeed(t *testing.T) {
	a := AzureLike(42, 100, 60)
	b := AzureLike(42, 100, 60)
	for i := range a.QPS {
		if a.QPS[i] != b.QPS[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c := AzureLike(43, 100, 60)
	same := true
	for i := range a.QPS {
		if a.QPS[i] != c.QPS[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Diurnal pins its shape: exact trough/peak endpoints, the configured
// peak/trough ratio, and exactly `periods` crests at the expected phase.
func TestDiurnalShape(t *testing.T) {
	const (
		steps   = 240
		trough  = 50.0
		peak    = 500.0
		periods = 3
	)
	tr := Diurnal(steps, 10, trough, peak, periods)
	if len(tr.QPS) != steps || tr.Interval != 10 {
		t.Fatalf("got %d steps interval %g", len(tr.QPS), tr.Interval)
	}
	if math.Abs(tr.min()-trough) > 1e-9 || math.Abs(tr.Peak()-peak) > 1e-9 {
		t.Fatalf("range [%g, %g], want [%g, %g]", tr.min(), tr.Peak(), trough, peak)
	}
	if ratio := tr.Peak() / tr.min(); math.Abs(ratio-peak/trough) > 1e-9 {
		t.Fatalf("peak/trough = %g, want %g", ratio, peak/trough)
	}
	// Period: a crest sits at the midpoint of each cycle (steps/periods
	// intervals per cycle, cos phase starting at the trough).
	cycle := steps / periods
	for p := 0; p < periods; p++ {
		crest := p*cycle + cycle/2
		if math.Abs(tr.QPS[crest]-peak) > 1e-9 {
			t.Fatalf("cycle %d crest at step %d is %g, want %g", p, crest, tr.QPS[crest], peak)
		}
		if p > 0 {
			if valley := tr.QPS[p*cycle]; math.Abs(valley-trough) > 1e-9 {
				t.Fatalf("cycle %d valley at step %d is %g, want %g", p, p*cycle, valley, trough)
			}
		}
	}
}

// FlashCrowd pins its shape: flat base outside the burst, exactly mult×
// inside, and a burst width matching durFrac.
func TestFlashCrowdShape(t *testing.T) {
	const (
		steps = 100
		base  = 200.0
		mult  = 3.0
	)
	tr := FlashCrowd(base, steps, 5, 0.4, 0.2, mult)
	elevated := 0
	for i, q := range tr.QPS {
		switch {
		case q == base:
		case q == base*mult:
			elevated++
		default:
			t.Fatalf("step %d rate %g is neither base nor burst", i, q)
		}
	}
	if elevated != 20 {
		t.Fatalf("burst spans %d steps, want 20 (durFrac 0.2 of %d)", elevated, steps)
	}
	if tr.QPS[39] != base || tr.QPS[40] != base*mult || tr.QPS[59] != base*mult || tr.QPS[60] != base {
		t.Fatal("burst window misaligned with [0.4, 0.6)")
	}
}

func TestRateAtClamps(t *testing.T) {
	tr := Ramp(1, 10, 10, 2) // 20 seconds long
	if tr.RateAt(-5) != tr.QPS[0] {
		t.Fatal("negative time should clamp to first interval")
	}
	if tr.RateAt(1e9) != tr.QPS[9] {
		t.Fatal("far future should clamp to last interval")
	}
	if tr.RateAt(3) != tr.QPS[1] {
		t.Fatalf("RateAt(3) = %g, want %g", tr.RateAt(3), tr.QPS[1])
	}
}

// TestArrivalsMatchRate checks the Poisson sampler: empirical rate within a
// few percent of the configured rate over a long window, and timestamps
// strictly inside the trace and sorted.
func TestArrivalsMatchRate(t *testing.T) {
	tr := &Trace{Interval: 100, QPS: []float64{50}}
	rng := rand.New(rand.NewSource(1))
	arr := tr.Arrivals(rng)
	got := float64(len(arr)) / 100
	if math.Abs(got-50)/50 > 0.1 {
		t.Fatalf("empirical rate %.1f, want ≈50", got)
	}
	for i, at := range arr {
		if at < 0 || at >= 100 {
			t.Fatalf("arrival %d at %g outside trace", i, at)
		}
		if i > 0 && at < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestArrivalsSkipZeroRate(t *testing.T) {
	tr := &Trace{Interval: 10, QPS: []float64{0, 20, 0}}
	rng := rand.New(rand.NewSource(2))
	for _, at := range tr.Arrivals(rng) {
		if at < 10 || at >= 20 {
			t.Fatalf("arrival at %g outside the only active interval", at)
		}
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := EWMA{Alpha: 0.3}
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA = %g, want 42", e.Value())
	}
}

func TestEWMAFirstObservationInitializes(t *testing.T) {
	e := EWMA{Alpha: 0.1}
	if e.init {
		t.Fatal("initialized before any observation")
	}
	e.Observe(10)
	if !e.init || e.Value() != 10 {
		t.Fatalf("after first obs: %g", e.Value())
	}
}

// TestEWMABetweenMinAndMax: the estimate never escapes the observed range.
func TestEWMABetweenMinAndMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := EWMA{Alpha: 0.05 + 0.9*rng.Float64()}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			x := rng.Float64() * 1000
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			e.Observe(x)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
