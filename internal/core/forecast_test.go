package core

import (
	"testing"

	"loki/internal/forecast"
	"loki/internal/profiles"
)

// recordingPlanner captures the demand each Allocate call plans for.
type recordingPlanner struct {
	demands []float64
	servers int
}

func (r *recordingPlanner) Allocate(demand float64) (*Plan, error) {
	r.demands = append(r.demands, demand)
	return &Plan{ServersUsed: r.servers}, nil
}

func (r *recordingPlanner) AllocateCapped(demand float64, caps []int) (*Plan, error) {
	r.demands = append(r.demands, demand)
	total := 0
	for _, n := range caps {
		total += n
	}
	return &Plan{ServersUsed: total}, nil
}

// stubForecaster predicts a fixed value regardless of history.
type stubForecaster struct{ pred float64 }

func (s *stubForecaster) Observe(t, rate float64)         {}
func (s *stubForecaster) Predict(horizon float64) float64 { return s.pred }

func forecastMeta(t *testing.T) *MetadataStore {
	t.Helper()
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	return NewMetadataStore(g, prof, 0.250, profiles.Batches)
}

// The controller plans for the forecaster's prediction when it exceeds the
// smoothed estimate (proactive scale-up) and for the estimate when the
// prediction is lower (reactive scale-down — the hysteresis).
func TestControllerPlansAgainstPrediction(t *testing.T) {
	meta := forecastMeta(t)
	fc := &stubForecaster{}
	meta.SetForecaster(fc)
	rec := &recordingPlanner{servers: 4}
	c := oneTenant(t, meta, rec, nil)

	meta.ObserveDemand(100)
	fc.pred = 400 // spike forecast: plan for the prediction
	if err := c.Step(true); err != nil {
		t.Fatal(err)
	}
	if got := rec.demands[len(rec.demands)-1]; got != 400 {
		t.Fatalf("planned for %v, want the 400 QPS prediction", got)
	}

	fc.pred = 10 // decay forecast: scale-down still follows the estimate
	if err := c.Step(true); err != nil {
		t.Fatal(err)
	}
	if got := rec.demands[len(rec.demands)-1]; got != meta.demandEstimate() {
		t.Fatalf("planned for %v, want the smoothed estimate %v (scale-down hysteresis)",
			got, meta.demandEstimate())
	}
}

// A prediction crossing the reallocation threshold triggers an unforced
// re-plan before the demand estimate itself moves: the spike is provisioned
// during the ramp.
func TestPredictionTriggersEarlyReallocation(t *testing.T) {
	meta := forecastMeta(t)
	fc := &stubForecaster{pred: 100}
	meta.SetForecaster(fc)
	rec := &recordingPlanner{servers: 2}
	c := oneTenant(t, meta, rec, nil)

	meta.ObserveDemand(100)
	if err := c.Step(true); err != nil {
		t.Fatal(err)
	}
	n := len(rec.demands)

	// Estimate unchanged, but the forecaster now sees a spike coming.
	fc.pred = 300
	if err := c.Step(false); err != nil {
		t.Fatal(err)
	}
	if len(rec.demands) != n+1 {
		t.Fatalf("unforced step with a 3x prediction did not re-plan (solves %d -> %d)", n, len(rec.demands))
	}
	if got := rec.demands[len(rec.demands)-1]; got != 300 {
		t.Fatalf("early re-plan used %v, want 300", got)
	}
}

// In the joint desire pass, a tenant whose forecaster predicts a spike
// raises its want before its demand moves — claiming idle neighbour servers
// proactively.
func TestArbiterDesirePassUsesPrediction(t *testing.T) {
	const pool = 20
	mk := func() (*Tenant, *recordingPlanner) {
		rec := &recordingPlanner{servers: 3}
		return &Tenant{Meta: forecastMeta(t), Alloc: rec}, rec
	}
	a, recA := mk()
	b, recB := mk()
	fc := &stubForecaster{pred: 50}
	a.Meta.SetForecaster(fc)
	m, err := NewMultiController(pool, []*Tenant{a, b})
	if err != nil {
		t.Fatal(err)
	}
	a.Meta.ObserveDemand(50)
	b.Meta.ObserveDemand(50)
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}

	fc.pred = 800 // tenant a's forecasted spike; estimates unchanged
	if err := m.Step(true); err != nil {
		t.Fatal(err)
	}
	if got := recA.demands[len(recA.demands)-1]; got != 800 {
		t.Fatalf("tenant a desire pass planned for %v, want the 800 QPS prediction", got)
	}
	if got := recB.demands[len(recB.demands)-1]; got != b.Meta.demandEstimate() {
		t.Fatalf("tenant b desire pass planned for %v, want its own estimate %v", got, b.Meta.demandEstimate())
	}
}

// PredictedDemand without a forecaster returns the smoothed estimate — the
// exact float the reactive planner uses, so max(est, pred) degenerates to
// est bit for bit.
func TestPredictedDemandDefaultsToEstimate(t *testing.T) {
	meta := forecastMeta(t)
	for _, q := range []float64{100, 180, 90, 260.5} {
		meta.ObserveDemand(q)
		if got, want := meta.PredictedDemand(10), meta.demandEstimate(); got != want {
			t.Fatalf("PredictedDemand = %v, want estimate %v", got, want)
		}
	}
}

// The store feeds the forecaster the smoothed estimate, so a Last forecaster
// predicts exactly the estimate (the identity guarantee), and the last raw
// sample stays unsmoothed.
func TestMetadataFeedsForecasterSmoothedSignal(t *testing.T) {
	meta := forecastMeta(t)
	meta.SetForecaster(&forecast.Last{})
	samples := []float64{100, 300, 50, 220}
	for i, q := range samples {
		meta.ObserveDemandAt(float64(i+1), q)
	}
	if got, want := meta.PredictedDemand(10), meta.demandEstimate(); got != want {
		t.Fatalf("Last forecaster predicts %v, want the smoothed estimate %v", got, want)
	}
	if got := meta.LastObservedDemand(); got != 220 {
		t.Fatalf("LastObservedDemand = %v, want 220", got)
	}
}
