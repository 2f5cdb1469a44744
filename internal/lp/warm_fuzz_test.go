package lp_test

import (
	"math/rand"
	"sort"
	"testing"

	"loki/internal/lp"
	"loki/internal/lp/lptest"
)

// FuzzWarmBounds is the differential test of the dual-simplex re-optimisation:
// random bound sequences applied to a retained tableau must agree with cold
// solves of the same rows plus bounds. Problem 0..k-1 selects from the fixed
// corpus; larger values seed a random problem. The seed corpus below runs
// under plain `go test`.
func FuzzWarmBounds(f *testing.F) {
	corpus := lp.CorpusProblems()
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < len(names)+60; i++ {
		f.Add(uint16(i), lptest.SeedScript(rng, 4+rng.Intn(40)))
	}
	f.Fuzz(func(t *testing.T, problem uint16, script []byte) {
		var p *lp.Problem
		if int(problem) < len(names) {
			p = corpus[names[problem]]
		} else {
			r := rand.New(rand.NewSource(int64(problem)))
			p = lp.RandomProblem(r, 2+r.Intn(10), 1+r.Intn(8))
		}
		if err := lptest.CheckWarm(p, nil, script); err != nil {
			t.Fatal(err)
		}
	})
}
