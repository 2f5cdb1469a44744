package core

import (
	"testing"

	"loki/internal/milp"
)

// FuzzGreedySeedAgainstModel checks the greedy first pass against the model it
// seeds, on the pin fixtures (the two paper pipelines on 20 servers, the
// 3-class fleet chain), at a fuzzed step, demand and per-class cap: a seed,
// when there is one, must satisfy every row of the step model in its column
// layout with integral replica counts inside the caps, and on hardware scaling
// it must never use fewer servers than the optimum the branch and bound proves
// on the same model. The seed corpus runs under plain `go test`.
func FuzzGreedySeedAgainstModel(f *testing.F) {
	var allocs []*Allocator
	for _, name := range []string{"traffic-analysis", "social-media", "fleet-chain"} {
		allocs = append(allocs, pinAllocator(f, name))
	}
	steps := []stepKind{stepHardware, stepAccuracy, stepSaturation, stepHardwareSat}

	for i := 0; i < 24; i++ {
		f.Add(uint8(i), uint8(i/3), uint16(25+31*i), uint8(255-9*i), uint8(40+7*i), uint8(11*i))
	}
	f.Fuzz(func(t *testing.T, pipe, stepByte uint8, demand uint16, c0, c1, c2 uint8) {
		a := allocs[int(pipe)%len(allocs)]
		step := steps[int(stepByte)%len(steps)]
		caps := make([]int, len(a.counts))
		for cl, b := range []uint8{c0, c1, c2}[:len(caps)] {
			caps[cl] = int(b) % (a.counts[cl] + 1)
		}
		if a.CheckCaps(caps) != nil {
			t.Skip("grant below one replica per task")
		}
		al := a.Capped(caps)
		m, x := greedySeedFor(t, al, float64(demand), step)
		if x == nil {
			return
		}
		verifyModelPoint(t, al, m, x)
		if step != stepHardware {
			return
		}
		res, err := milp.SolveWithOptions(&milp.Problem{LP: m.prob, Integer: m.integer},
			milp.Options{ObjIntegral: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != milp.Optimal {
			t.Fatalf("greedy found a hardware-scaling point but the MILP ended %v", res.Status)
		}
		servers := 0.0
		for j, c := range m.prob.Obj {
			servers += c * x[j]
		}
		if servers < res.Objective-1e-6 {
			t.Fatalf("greedy seed uses %v servers, below the proven optimum %v", servers, res.Objective)
		}
	})
}
