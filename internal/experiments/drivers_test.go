//go:build !race

package experiments

import (
	"math"
	"testing"
)

// TestChaosOutageMatchesRecordedRun pins every tenant's before, during and
// after window scores of the chaos grid's outage cells, both arms, to the
// values recorded before the drivers shared one assembly. The race
// detector's slowdown lets the wall-clock solve limit cut searches that
// finish in time otherwise, so race builds leave this file out.
func TestChaosOutageMatchesRecordedRun(t *testing.T) {
	res, err := Chaos(ChaosConfig{Seed: 11, Quick: true, Faults: []string{"outage"}})
	if err != nil {
		t.Fatal(err)
	}
	// Per cell (tiered first), per tenant (gold, free): before, during and
	// after as attainment, goodput ratio, shed percentage.
	//
	// Re-recorded once when the accuracy-scaling search began branching on
	// per-(task, class) replica totals. During the outage the untiered gold
	// tenant's searches now find plans that serve all of its demand where
	// they used to be cut empty-handed and fall through to saturation (gold
	// window 1 0.920 → 0.993). After recovery the tiered free tenant's two
	// searches on its 6 + 4 grant are stall-cut at less accurate incumbents
	// where they used to close by proof or gap (free window 2 0.999 → 0.985).
	want := [][][3]chaosWindow{
		{ // tiered
			{{0.989934354486, 0.989934354486, 0}, {0.989244420543, 0.989244420543, 0}, {0.985513245033, 0.985513245033, 0}},
			{{0.992586490939, 0.992586490939, 0}, {0.445023148148, 0.195823784059, 55.9969442322}, {0.984551148225, 0.984551148225, 0}},
		},
		{ // untiered
			{{0.996498905908, 0.996498905908, 0}, {0.993277762839, 0.993277762839, 0}, {1, 1, 0}},
			{{0.997940691928, 0.997940691928, 0}, {0.871013667426, 0.778966131907, 10.567863509}, {1, 1, 0}},
		},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-11*math.Max(math.Abs(a), 1) }
	same := func(a, b chaosWindow) bool {
		return near(a.attainment, b.attainment) && near(a.goodputRatio, b.goodputRatio) && near(a.shedPct, b.shedPct)
	}
	if len(res.cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(res.cells), len(want))
	}
	for c, cell := range res.cells {
		if len(cell.tenants) != len(want[c]) {
			t.Fatalf("tiered=%v: %d tenants, want %d", cell.tiered, len(cell.tenants), len(want[c]))
		}
		for i, tn := range cell.tenants {
			got := [3]chaosWindow{tn.before, tn.during, tn.after}
			for w := range got {
				if !same(got[w], want[c][i][w]) {
					t.Errorf("tiered=%v %s window %d: got %#v, want %#v", cell.tiered, tn.name, w, got[w], want[c][i][w])
				}
			}
		}
	}
}
