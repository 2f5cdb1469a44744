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
	want := [][][3]chaosWindow{
		{ // tiered
			{{0.990371991247, 0.990371991247, 0}, {0.983059962355, 0.983059962355, 0}, {0.987996688742, 0.987996688742, 0}},
			{{0.997116968699, 0.997116968699, 0}, {0.438657407407, 0.193022663611, 55.9969442322}, {0.999164926931, 0.999164926931, 0}},
		},
		{ // untiered
			{{0.997374179431, 0.997374179431, 0}, {0.920068027211, 0.872815272923, 5.13578919064}, {0.988391376451, 0.986754966887, 0.165562913907}},
			{{0.997940691928, 0.997940691928, 0}, {0.871867881549, 0.779730073848, 10.567863509}, {0.988308977035, 0.988308977035, 0}},
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
