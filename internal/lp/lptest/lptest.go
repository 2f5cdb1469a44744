// Package lptest holds the differential check that pins the workspace's warm
// re-optimisation (lp.Workspace.Bound) to the cold solver, shared by the lp
// package's own fuzz target and by the packages whose models it must hold on.
package lptest

import (
	"fmt"
	"math"
	"math/rand"

	"loki/internal/lp"
)

const maxSteps = 96

// interval is the collapsed bound on one variable.
type interval struct{ lo, hi float64 }

// CheckWarm solves p through a workspace and then plays script against the
// retained tableau as a sequence of variable bounds, three bytes per bound:
// the variable, an opcode, and an offset from the variable's current value
// (so bounds land near the current vertex, where they cut). After every bound
// the warm result must match a from-scratch lp.Solve of p's rows plus the
// tightest bound per variable, in status and in objective to 1e-7. Opcode bit
// 0 picks ≥ over ≤; bit 1 makes the bound a sibling probe, evaluated on a
// Fork and then undone with Swap, the way branch and bound evaluates the
// child it does not continue with; bit 2 picks the variable among those
// currently positive — the basic ones, which is where branching bounds land —
// and not among all of them. When the spare bound rows run out the
// workspace is rebuilt cold from the collapsed bounds and the script goes on,
// for at most maxSteps bounds (every step costs a cold solve, and a fuzzer
// grows its inputs).
func CheckWarm(p *lp.Problem, script []byte) error {
	ws := &lp.Workspace{}
	root, err := lp.SolveWS(p, lp.Options{}, ws)
	if err != nil {
		return err
	}
	if root.Status != lp.Optimal || p.NumVars == 0 {
		return nil
	}
	x := append([]float64(nil), root.X...)
	bounds := map[int]interval{}
	var support []int

	for step := 0; step < maxSteps && len(script) >= 3; step++ {
		v := int(script[0]) % p.NumVars
		op := script[1]
		if op&4 != 0 {
			support = support[:0]
			for j, xj := range x {
				if xj > 1e-9 {
					support = append(support, j)
				}
			}
			if len(support) > 0 {
				v = support[int(script[0])%len(support)]
			}
		}
		off := float64(int(script[2]%9)-4) / 2 // -2, -1.5, … 2
		script = script[3:]

		sense := lp.LE
		val := math.Floor(x[v]) + off
		if op&1 != 0 {
			sense = lp.GE
			val = math.Floor(x[v]) + 1 + off
		}
		if val < 0 {
			val = 0
		}
		probe := op&2 != 0

		if !ws.Warm() {
			// Out of spare rows: restart from a cold solve of the node, as
			// branch and bound does.
			cold, err := lp.SolveWS(withBounds(p, bounds), lp.Options{}, ws)
			if err != nil {
				return err
			}
			if cold.Status != lp.Optimal {
				return nil
			}
			if !ws.Warm() {
				return fmt.Errorf("step %d: optimal cold restart left no warm tableau", step)
			}
		}

		with := map[int]interval{}
		for k, b := range bounds {
			with[k] = b
		}
		b, ok := with[v]
		if !ok {
			b = interval{0, math.Inf(1)}
		}
		if sense == lp.GE {
			b.lo = math.Max(b.lo, val)
		} else {
			b.hi = math.Min(b.hi, val)
		}
		with[v] = b

		if probe {
			ws.Fork()
		}
		warm, ok := ws.Bound(v, sense, val, lp.Options{})
		if !ok {
			return fmt.Errorf("step %d: Bound refused on a warm workspace", step)
		}
		cold, err := lp.Solve(withBounds(p, with))
		if err != nil {
			return err
		}
		if cold.Status == lp.IterLimit || warm.Status == lp.IterLimit {
			return nil
		}
		if warm.Status != cold.Status {
			return fmt.Errorf("step %d: x%d %v %g: warm %v, cold %v", step, v, sense, val, warm.Status, cold.Status)
		}
		if warm.Status == lp.Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-7 {
			return fmt.Errorf("step %d: x%d %v %g: warm objective %.12g, cold %.12g", step, v, sense, val, warm.Objective, cold.Objective)
		}
		if probe {
			ws.Swap()
			continue
		}
		if warm.Status != lp.Optimal {
			return nil
		}
		bounds = with
		copy(x, warm.X)
	}
	return nil
}

// SeedScript returns a random script of n bounds for a fuzz target's seed
// corpus, three in four of them aimed at positive variables so that most
// bounds cut.
func SeedScript(rng *rand.Rand, n int) []byte {
	script := make([]byte, 3*n)
	rng.Read(script)
	for i := 1; i < len(script); i += 3 {
		if rng.Intn(4) != 0 {
			script[i] |= 4
		}
	}
	return script
}

// withBounds returns p plus one row per finite bound, in ascending variable
// order so the cold reference is deterministic.
func withBounds(p *lp.Problem, bounds map[int]interval) *lp.Problem {
	q := p.Clone()
	for v := 0; v < p.NumVars; v++ {
		b, ok := bounds[v]
		if !ok {
			continue
		}
		if b.lo > 0 {
			q.AddConstraint([]lp.Term{{Var: v, Coef: 1}}, lp.GE, b.lo)
		}
		if !math.IsInf(b.hi, 1) {
			q.AddConstraint([]lp.Term{{Var: v, Coef: 1}}, lp.LE, b.hi)
		}
	}
	return q
}
