package experiments

import "testing"

// The mixed-fleet acceptance: on the recorded scenario the planner must
// extract real value from heterogeneity — SLO attainment at least matching
// the speed-equivalent homogeneous fleet at strictly lower cost per query —
// and the plan must actually spread across classes rather than collapsing
// onto one.
func TestHeteroBeatsSpeedEquivalentHomogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size serving runs; skipped with -short")
	}
	r, err := Hetero(HeteroConfig{Seed: 11, TraceSteps: 24, StepSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatHetero(r))
	if r.hetero.sloAttainment < r.homogeneous.sloAttainment {
		t.Errorf("hetero SLO attainment %.4f below the homogeneous baseline %.4f",
			r.hetero.sloAttainment, r.homogeneous.sloAttainment)
	}
	if r.hetero.costPerQuery >= r.homogeneous.costPerQuery {
		t.Errorf("hetero cost/query %.8f not strictly below homogeneous %.8f",
			r.hetero.costPerQuery, r.homogeneous.costPerQuery)
	}
	used := 0
	for _, mean := range r.hetero.serversByClass {
		if mean > 0.5 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("hetero plan collapsed onto %d hardware class(es): %v", used, r.hetero.serversByClass)
	}
}
