package experiments

import (
	"testing"
)

// TestIngressShedBeatsQueueRot is the overload-sweep acceptance check: on a
// capacity-matched data plane, admission control must keep the admitted
// population's SLO attainment at the baseline's healthy-load level while the
// open door's queues rot, and its goodput under 2x overload must strictly
// beat the open door's. The sweep runs on the simulator.
func TestIngressShedBeatsQueueRot(t *testing.T) {
	r, err := Ingress(IngressConfig{
		Seed:  11,
		Mults: []float64{1.0, 2.0},
		// Eight seconds per point: the driver scores the three after its
		// five-second warmup.
		DurSec: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.baseline) != 2 || len(r.admitted) != 2 {
		t.Fatalf("sweep shape: %d baseline, %d admitted points", len(r.baseline), len(r.admitted))
	}
	if r.capacityQPS <= 0 {
		t.Fatalf("measured capacity %.0f", r.capacityQPS)
	}
	base1, base2 := r.baseline[0], r.baseline[1]
	adm1, adm2 := r.admitted[0], r.admitted[1]

	// At 1x nobody should shed and the doors should be indistinguishable.
	if adm1.shedRate > 0.02 {
		t.Errorf("admission sheds %.1f%% at 1x capacity", 100*adm1.shedRate)
	}
	if adm1.attainment < base1.attainment-0.02 {
		t.Errorf("admission at 1x: attainment %.4f vs open %.4f", adm1.attainment, base1.attainment)
	}

	// At 2x the gate must shed a substantial fraction...
	if adm2.shedRate < 0.25 {
		t.Errorf("admission sheds only %.1f%% at 2x capacity", 100*adm2.shedRate)
	}
	// ...and the admitted population must keep the healthy-load attainment
	// (the acceptance bar: no worse than the open door under no overload).
	if adm2.attainment < base1.attainment-0.02 {
		t.Errorf("admitted attainment %.4f at 2x, open door at 1x %.4f", adm2.attainment, base1.attainment)
	}
	// Shedding early must strictly beat queueing-then-missing on goodput.
	if adm2.goodputQPS <= base2.goodputQPS {
		t.Errorf("goodput at 2x: admission %.0f qps, open %.0f qps — shedding must win",
			adm2.goodputQPS, base2.goodputQPS)
	}
	// And the open door must actually have rotted — if it still attains the
	// SLO under 2x overload the sweep is not measuring overload at all.
	if base2.attainment > 0.5 {
		t.Errorf("open door attains %.4f at 2x capacity; expected queue rot", base2.attainment)
	}
}
