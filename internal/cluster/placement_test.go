package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"loki/internal/core"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
)

// referenceAssign is the claim loop both engines carried before
// core.Reconciler, kept verbatim (string key included) as the definition of
// the right answer: every spec scans the whole pool for an unclaimed
// incumbent with its exact config, then the unmatched specs scan it again for
// the first unclaimed up worker of their class.
func referenceAssign(specs []core.WorkerSpec, held []*core.WorkerSpec, down []bool, classOf []int) []*core.WorkerSpec {
	key := func(s *core.WorkerSpec) string {
		return fmt.Sprintf("%d/%d/%d/%d", s.Task, s.Variant, s.MaxBatch, s.Class)
	}
	claimed := make([]bool, len(held))
	assign := make([]*core.WorkerSpec, len(held))
	var unmatched []*core.WorkerSpec
	for i := range specs {
		s := &specs[i]
		found := false
		for wi := range held {
			if !claimed[wi] && !down[wi] && held[wi] != nil && key(held[wi]) == key(s) {
				claimed[wi] = true
				assign[wi] = s
				found = true
				break
			}
		}
		if !found {
			unmatched = append(unmatched, s)
		}
	}
	for _, s := range unmatched {
		for wi := range held {
			if !claimed[wi] && !down[wi] && classOf[wi] == s.Class {
				claimed[wi] = true
				assign[wi] = s
				break
			}
		}
	}
	return assign
}

// placementStep is one step of a seeded publish sequence: faults to inject,
// then the specs to publish.
type placementStep struct {
	down, up []int
	specs    []core.WorkerSpec
}

// placementSequence draws plans over a pool laid out as classOf: random mixes
// of (task, batch, class) over testGraph whose per-class totals swing from
// empty to past the class's size, shuffled so replicas of one config are not
// adjacent, with single crashes, recoveries and whole-class outages between
// plans.
func placementSequence(seed int64, classes []profiles.Class, classOf []int, steps int) []placementStep {
	rng := rand.New(rand.NewSource(seed))
	isDown := make([]bool, len(classOf))
	seq := make([]placementStep, steps)
	for n := range seq {
		st := &seq[n]
		switch rng.Intn(6) {
		case 0: // a few crashes
			for k := rng.Intn(4); k >= 0; k-- {
				st.down = append(st.down, rng.Intn(len(classOf)))
			}
		case 1: // some of the down workers recover
			for p := range isDown {
				if isDown[p] && rng.Intn(2) == 0 {
					st.up = append(st.up, p)
				}
			}
		case 2: // a whole class goes out, or comes back
			c, out := rng.Intn(len(classes)), rng.Intn(2) == 0
			for p := range classOf {
				if classOf[p] == c && out {
					st.down = append(st.down, p)
				} else if classOf[p] == c {
					st.up = append(st.up, p)
				}
			}
		}
		for _, p := range st.down {
			isDown[p] = true
		}
		for _, p := range st.up {
			isDown[p] = false
		}
		for c, cl := range classes {
			want := rng.Intn(cl.Count + cl.Count/3 + 2) // sometimes more than the class holds
			for want > 0 {
				k := 1 + rng.Intn(want)
				want -= k
				s := core.WorkerSpec{
					Task: pipeline.TaskID(rng.Intn(2)), MaxBatch: 1 << rng.Intn(3),
					Class: c, ClassName: cl.Name, QPS: 100, LatencySec: 0.01, BudgetSec: 0.02,
				}
				for ; k > 0; k-- {
					st.specs = append(st.specs, s)
				}
			}
		}
		rng.Shuffle(len(st.specs), func(i, j int) { st.specs[i], st.specs[j] = st.specs[j], st.specs[i] })
		for i := range st.specs {
			st.specs[i].ID = core.WorkerID(i)
		}
	}
	return seq
}

// randomTables draws routing tables for specs IDs 0..n-1: some IDs have no
// table or a nil one, and a table holds entries, an empty list or nothing for
// each of the tasks, pointing at IDs that may lie past n.
func randomTables(rng *rand.Rand, n, tasks int) map[core.WorkerID]*core.WorkerTable {
	tables := map[core.WorkerID]*core.WorkerTable{}
	for id := 0; id < n; id++ {
		switch rng.Intn(5) {
		case 0:
			continue
		case 1:
			tables[core.WorkerID(id)] = nil
			continue
		}
		t := &core.WorkerTable{PerChild: map[pipeline.TaskID][]core.RouteEntry{}}
		for child := 0; child < tasks; child++ {
			if rng.Intn(3) == 0 {
				continue
			}
			entries := []core.RouteEntry{}
			for k := rng.Intn(4); k > 0; k-- {
				entries = append(entries, core.RouteEntry{Worker: core.WorkerID(rng.Intn(n + 2)), Prob: rng.Float64()})
			}
			t.PerChild[pipeline.TaskID(child)] = entries
		}
		tables[core.WorkerID(id)] = t
	}
	return tables
}

// TestPlacementMatchesReference is the safety net under "the assignment is
// identical": over seeded sequences of plans with workers crashing,
// recovering and whole classes going out in between, a bare core.Reconciler
// and the cluster both put the same spec on the same physical worker as the
// quadratic loop they used to carry, and the Reconciler reports exactly the
// workers that held or now hold a spec, in ascending order. After every
// publish the cluster's compiled routing answers exactly what the routes'
// table map holds, for every ID any plan so far has used.
func TestPlacementMatchesReference(t *testing.T) {
	classes := []profiles.Class{
		{Name: "fast", Count: 7, Speed: 2}, {Name: "mid", Count: 12, Speed: 1}, {Name: "slow", Count: 9, Speed: 0.5},
	}
	var classOf []int
	for c, cl := range classes {
		for i := 0; i < cl.Count; i++ {
			classOf = append(classOf, c)
		}
	}
	g := testGraph()
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := core.NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)

	overfull := 0
	for seed := int64(1); seed <= 3; seed++ {
		rec := core.NewReconciler(classes)
		cl, err := New(&sim.Engine{}, meta, policy.NoDrop{}, nil, Options{Classes: classes, SLOSec: 0.250, SwapLatencySec: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		held := make([]*core.WorkerSpec, len(classOf))
		down := make([]bool, len(classOf))
		tableRNG := rand.New(rand.NewSource(seed))
		idsSeen := 0
		for n, st := range placementSequence(seed, classes, classOf, 200) {
			for _, p := range st.down {
				down[p], held[p] = true, nil
				rec.SetDown(p, true)
				cl.SetWorkerDown(p)
			}
			for _, p := range st.up {
				down[p] = false
				rec.SetDown(p, false)
				cl.SetWorkerUp(p)
			}
			want := referenceAssign(st.specs, held, down, classOf)
			routes := &core.Routes{Specs: st.specs, Tables: randomTables(tableRNG, len(st.specs), len(g.Tasks))}
			touched := rec.Reconcile(st.specs)
			cl.ApplyPlan(nil, routes)

			inTouched := make([]bool, len(classOf))
			for i, p := range touched {
				if i > 0 && touched[i-1] >= p {
					t.Fatalf("seed %d step %d: touched not strictly ascending: %v", seed, n, touched)
				}
				inTouched[p] = true
			}
			placed := 0
			for p, w := range want {
				if got := rec.Held(p); got != w {
					t.Fatalf("seed %d step %d worker %d: reconciler holds %+v, reference %+v", seed, n, p, got, w)
				}
				if got := cl.workers[p].spec; got != w {
					t.Fatalf("seed %d step %d worker %d: cluster holds %+v, reference %+v", seed, n, p, got, w)
				}
				if (held[p] != nil || w != nil) != inTouched[p] {
					t.Fatalf("seed %d step %d worker %d: held before %v, holds now %v, but touched=%v", seed, n, p, held[p] != nil, w != nil, inTouched[p])
				}
				if w != nil {
					placed++
					if cl.logical[w.ID] != cl.workers[p] {
						t.Fatalf("seed %d step %d worker %d: cluster's logical table does not map spec %d here", seed, n, p, w.ID)
					}
				}
			}
			mapped := 0
			for _, w := range cl.logical {
				if w != nil {
					mapped++
				}
			}
			if mapped != placed {
				t.Fatalf("seed %d step %d: cluster's logical table has %d entries for %d placed specs", seed, n, mapped, placed)
			}
			idsSeen = max(idsSeen, len(st.specs))
			for id := core.WorkerID(-1); int(id) <= idsSeen; id++ {
				table := routes.Tables[id]
				if got := cl.tableExists(id); got != (table != nil) {
					t.Fatalf("seed %d step %d: spec %d has a table: compiled %v, map %v", seed, n, id, got, table != nil)
				}
				for child := pipeline.TaskID(0); int(child) < len(g.Tasks); child++ {
					var want []core.RouteEntry
					if table != nil {
						want = table.PerChild[child]
					}
					if got := cl.childRoutes(id, child); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: spec %d child %d: compiled %v, map %v", seed, n, id, child, got, want)
					}
				}
			}
			if placed < len(st.specs) {
				overfull++
			}
			held = want
		}
	}
	if overfull < 20 {
		t.Fatalf("only %d plans exceeded a class's live count; the generator no longer covers that case", overfull)
	}
}
