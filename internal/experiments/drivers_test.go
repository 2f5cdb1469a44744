package experiments

import (
	"math"
	"testing"
)

// tenantPin is the part of one MultiTenant tenant outcome pinned to
// recorded values.
type tenantPin struct {
	Arrivals, Completed, Late, Dropped int
	MinGrant, MaxGrant                 int
}

// TestMultiTenantMatchesRecordedRun pins the shared-pool contention driver
// on its quick configuration (the one `lokiexp -fig multitenant -quick`
// runs) to the counts it produced before the drivers shared one assembly.
// The traffic tenant's completed, late and dropped counts and the MILP solve
// count are left out: some of its spike-time solves stop at the wall-clock
// limit, so those vary from run to run of one build.
func TestMultiTenantMatchesRecordedRun(t *testing.T) {
	if raceEnabled {
		t.Skip("recorded run; skipped in race builds")
	}
	res, err := MultiTenant(MultiTenantConfig{Servers: 20, SLOSec: 0.25, Seed: 11, TraceSteps: 24, StepSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]tenantPin{
		"traffic": {Arrivals: 69563, MinGrant: 3, MaxGrant: 14},
		"social":  {Arrivals: 24166, Completed: 22387, Late: 1561, Dropped: 218, MinGrant: 2, MaxGrant: 8},
	}
	for _, tn := range res.tenants {
		s := tn.summary
		got := tenantPin{s.Arrivals, s.Completed, s.Late, s.Dropped, tn.minGrant, tn.maxGrant}
		if tn.name == "traffic" {
			got.Completed, got.Late, got.Dropped = 0, 0, 0
		}
		if got != want[tn.name] {
			t.Errorf("%s: got %#v, want %#v", tn.name, got, want[tn.name])
		}
	}
}

// TestChaosOutageMatchesRecordedRun pins every tenant's before, during and
// after window scores of the chaos grid's outage cells, both arms, to the
// values recorded before the drivers shared one assembly.
func TestChaosOutageMatchesRecordedRun(t *testing.T) {
	if raceEnabled {
		t.Skip("recorded run; skipped in race builds")
	}
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
