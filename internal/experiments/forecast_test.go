package experiments

import "testing"

// The acceptance gate of the forecasting subsystem: on the flash-crowd
// trace, proactive provisioning with Envelope(HoltWinters) keeps strictly
// higher SLO attainment inside the spike window than the reactive baseline,
// and the learned forecasters beat persistence on offline error for the
// diurnal trace.
func TestForecastProactiveBeatsReactiveOnFlashCrowd(t *testing.T) {
	results, err := Forecast(ForecastConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatForecast(results))

	byName := func(r *forecastResult, name string) forecastOutcome {
		for _, o := range r.outcomes {
			if o.name == name {
				return o
			}
		}
		t.Fatalf("scenario %s has no %q outcome", r.scenario, name)
		return forecastOutcome{}
	}
	var flash, diurnal *forecastResult
	for _, r := range results {
		switch r.scenario {
		case "flash-crowd":
			flash = r
		case "diurnal":
			diurnal = r
		}
	}
	if flash == nil || diurnal == nil {
		t.Fatalf("missing scenarios in %v", results)
	}

	reactive := byName(flash, "reactive")
	hw := byName(flash, "holtwinters")
	if reactive.windowArrivals == 0 || hw.windowArrivals == 0 {
		t.Fatal("spike window saw no arrivals; window misaligned with the trace")
	}
	if hw.windowAttainment <= reactive.windowAttainment {
		t.Fatalf("proactive holtwinters spike-window SLO %.4f is not strictly above reactive %.4f",
			hw.windowAttainment, reactive.windowAttainment)
	}

	// Forecast accuracy: on the smooth diurnal trace the learned models
	// must beat the persistence error the reactive plane implies.
	dReactive := byName(diurnal, "reactive")
	for _, name := range []string{"trend", "holtwinters"} {
		if o := byName(diurnal, name); o.forecastMAE >= dReactive.forecastMAE {
			t.Errorf("%s diurnal MAE %.1f is not below persistence %.1f", name, o.forecastMAE, dReactive.forecastMAE)
		}
	}
}
