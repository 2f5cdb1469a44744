// Package lptest holds the differential check that pins the workspace's warm
// re-optimisation (lp.Workspace.Bound) to the cold solver, shared by the lp
// package's own fuzz target and by the packages whose models it must hold on.
package lptest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"loki/internal/lp"
)

const maxSteps = 96

// bound is the collapsed bound on one variable or one term list.
type bound struct {
	terms  []lp.Term
	lo, hi float64
}

// CheckWarm solves p through a workspace and then plays script against the
// retained tableau as a sequence of bounds, three bytes per bound: the
// variable, an opcode, and an offset from the bounded sum's current value (so
// bounds land near the current vertex, where they cut). After every bound the
// warm result must match a from-scratch lp.Solve of p's rows plus the
// tightest bound per variable or term list, in status and in objective to
// 1e-7. Opcode bit 0 picks ≥ over ≤; bit 1 makes the bound a sibling probe,
// evaluated on a Fork and then undone with Swap, the way branch and bound
// evaluates the child it does not continue with; bit 2 picks the variable
// among those currently positive — the basic ones, which is where branching
// bounds land — and not among all of them. Bit 3 bounds a term list instead
// of the variable: one of groups, picked by the variable byte, or with no
// groups the run of two to four variables that starts at the variable. When
// the spare bound rows run out the workspace is rebuilt cold from the
// collapsed bounds and the script goes on, for at most maxSteps bounds (every
// step costs a cold solve, and a fuzzer grows its inputs).
func CheckWarm(p *lp.Problem, groups [][]lp.Term, script []byte) error {
	ws := &lp.Workspace{}
	root, err := lp.SolveWS(p, lp.Options{}, ws)
	if err != nil {
		return err
	}
	if root.Status != lp.Optimal || p.NumVars == 0 {
		return nil
	}
	x := append([]float64(nil), root.X...)
	bounds := map[string]bound{}
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
		terms := []lp.Term{{Var: v, Coef: 1}}
		if op&8 != 0 {
			if len(groups) > 0 {
				terms = groups[int(script[0])%len(groups)]
			} else {
				terms = terms[:0]
				for k := 0; k < min(2+int(op>>4)%3, p.NumVars); k++ {
					terms = append(terms, lp.Term{Var: (v + k) % p.NumVars, Coef: 1})
				}
			}
		}
		off := float64(int(script[2]%9)-4) / 2 // -2, -1.5, … 2
		script = script[3:]

		at := math.Floor(sum(terms, x))
		sense := lp.LE
		val := at + off
		if op&1 != 0 {
			sense = lp.GE
			val = at + 1 + off
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

		with := map[string]bound{}
		for k, b := range bounds {
			with[k] = b
		}
		k := key(terms)
		b, ok := with[k]
		if !ok {
			b = bound{terms: terms, lo: 0, hi: math.Inf(1)}
		}
		if sense == lp.GE {
			b.lo = math.Max(b.lo, val)
		} else {
			b.hi = math.Min(b.hi, val)
		}
		with[k] = b

		if probe {
			ws.Fork()
		}
		warm, ok := ws.Bound(terms, sense, val, lp.Options{})
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
			return fmt.Errorf("step %d: %v %v %g: warm %v, cold %v", step, terms, sense, val, warm.Status, cold.Status)
		}
		if warm.Status == lp.Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-7 {
			return fmt.Errorf("step %d: %v %v %g: warm objective %.12g, cold %.12g", step, terms, sense, val, warm.Objective, cold.Objective)
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
// bounds cut, and one in four over a term list.
func SeedScript(rng *rand.Rand, n int) []byte {
	script := make([]byte, 3*n)
	rng.Read(script)
	for i := 1; i < len(script); i += 3 {
		script[i] &^= 4 | 8
		if rng.Intn(4) != 0 {
			script[i] |= 4
		}
		if rng.Intn(4) == 0 {
			script[i] |= 8
		}
	}
	return script
}

// sum is the value of the term list at x.
func sum(terms []lp.Term, x []float64) float64 {
	s := 0.0
	for _, tm := range terms {
		s += tm.Coef * x[tm.Var]
	}
	return s
}

// key names a term list by its variables.
func key(terms []lp.Term) string {
	b := make([]byte, 0, 4*len(terms))
	for _, tm := range terms {
		b = fmt.Appendf(b, "%d,", tm.Var)
	}
	return string(b)
}

// withBounds returns p plus one row per finite bound, in key order so the
// cold reference is deterministic.
func withBounds(p *lp.Problem, bounds map[string]bound) *lp.Problem {
	q := p.Clone()
	keys := make([]string, 0, len(bounds))
	for k := range bounds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := bounds[k]
		if b.lo > 0 {
			q.AddConstraint(b.terms, lp.GE, b.lo)
		}
		if !math.IsInf(b.hi, 1) {
			q.AddConstraint(b.terms, lp.LE, b.hi)
		}
	}
	return q
}
