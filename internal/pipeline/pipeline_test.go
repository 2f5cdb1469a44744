package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// chain builds a linear pipeline with the given variant counts per task.
func chain(variantCounts ...int) *Graph {
	g := &Graph{Name: "chain"}
	for i, n := range variantCounts {
		t := Task{ID: TaskID(i), Name: "t"}
		for k := 0; k < n; k++ {
			t.Variants = append(t.Variants, Variant{
				Name: "v", Accuracy: 0.5 + 0.5*float64(k+1)/float64(n),
				Alpha: 0.001, Beta: 0.001, MultFactor: 1,
			})
		}
		if i+1 < len(variantCounts) {
			t.Children = []Child{{Task: TaskID(i + 1), BranchRatio: 1}}
		}
		g.Tasks = append(g.Tasks, t)
	}
	return g
}

func twoSinkTree() *Graph {
	g := &Graph{
		Name: "tree",
		Tasks: []Task{
			{ID: 0, Name: "det", Variants: []Variant{
				{Name: "d0", Accuracy: 0.8, Alpha: 0.01, Beta: 0.01, MultFactor: 2.0},
				{Name: "d1", Accuracy: 1.0, Alpha: 0.01, Beta: 0.01, MultFactor: 2.5},
			}, Children: []Child{{Task: 1, BranchRatio: 0.7}, {Task: 2, BranchRatio: 0.3}}},
			{ID: 1, Name: "car", Variants: []Variant{
				{Name: "c0", Accuracy: 0.9, Alpha: 0.001, Beta: 0.002, MultFactor: 1},
				{Name: "c1", Accuracy: 1.0, Alpha: 0.002, Beta: 0.003, MultFactor: 1},
			}},
			{ID: 2, Name: "face", Variants: []Variant{
				{Name: "f0", Accuracy: 1.0, Alpha: 0.001, Beta: 0.002, MultFactor: 1},
			}},
		},
	}
	return g
}

func TestValidateAcceptsTree(t *testing.T) {
	if err := twoSinkTree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEmptyGraph(t *testing.T) {
	g := &Graph{}
	if err := g.Validate(); err == nil {
		t.Fatal("want error on empty graph")
	}
}

func TestValidateRejectsTwoParents(t *testing.T) {
	g := twoSinkTree()
	// Give task 2 a second parent.
	g.Tasks[1].Children = append(g.Tasks[1].Children, Child{Task: 2, BranchRatio: 1})
	if err := g.Validate(); err == nil {
		t.Fatal("want error when a task has two parents")
	}
}

func TestValidateRejectsRootIncomingEdge(t *testing.T) {
	g := twoSinkTree()
	g.Tasks[2].Children = []Child{{Task: 0, BranchRatio: 1}}
	if err := g.Validate(); err == nil {
		t.Fatal("want error when root has an incoming edge")
	}
}

func TestValidateRejectsBadAccuracy(t *testing.T) {
	g := chain(2)
	g.Tasks[0].Variants[0].Accuracy = 1.5
	if err := g.Validate(); err == nil {
		t.Fatal("want error on accuracy > 1")
	}
}

func TestValidateRejectsZeroBeta(t *testing.T) {
	g := chain(2)
	g.Tasks[0].Variants[0].Beta = 0
	if err := g.Validate(); err == nil {
		t.Fatal("want error on zero beta")
	}
}

func TestValidateRejectsBadBranchRatio(t *testing.T) {
	g := twoSinkTree()
	g.Tasks[0].Children[0].BranchRatio = 0
	if err := g.Validate(); err == nil {
		t.Fatal("want error on zero branch ratio")
	}
}

func TestVariantThroughputMonotoneInBatch(t *testing.T) {
	v := Variant{Alpha: 0.01, Beta: 0.002}
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		q := float64(b) / v.Latency(b)
		if q <= prev {
			t.Fatalf("throughput not increasing at batch %d: %g <= %g", b, q, prev)
		}
		prev = q
	}
}

func TestSinksAndTopoOrder(t *testing.T) {
	g := twoSinkTree()
	sinks := g.Sinks()
	if len(sinks) != 2 || sinks[0] != 1 || sinks[1] != 2 {
		t.Fatalf("sinks = %v, want [1 2]", sinks)
	}
	topo := g.TopoOrder()
	if len(topo) != 3 || topo[0] != 0 {
		t.Fatalf("topo = %v", topo)
	}
	pos := map[TaskID]int{}
	for i, id := range topo {
		pos[id] = i
	}
	for _, task := range g.Tasks {
		for _, c := range task.Children {
			if pos[task.ID] >= pos[c.Task] {
				t.Fatalf("topo order violates edge %d→%d", task.ID, c.Task)
			}
		}
	}
}

func TestParent(t *testing.T) {
	g := twoSinkTree()
	p, ratio := g.Parent(2)
	if p != 0 || ratio != 0.3 {
		t.Fatalf("Parent(2) = %d, %g; want 0, 0.3", p, ratio)
	}
	if p, _ := g.Parent(0); p != -1 {
		t.Fatalf("root parent = %d, want -1", p)
	}
}

func TestTaskPathsOfTree(t *testing.T) {
	g := twoSinkTree()
	paths := g.TaskPaths()
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if paths[0].Tasks[1] != 1 || paths[1].Tasks[1] != 2 {
		t.Fatalf("unexpected paths %+v", paths)
	}
}

func TestTaskPathsWithInteriorOutput(t *testing.T) {
	// classification (output) → captioning, as in the social-media graph.
	g := chain(2, 2)
	g.Tasks[0].Output = true
	paths := g.TaskPaths()
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (interior sink + leaf)", len(paths))
	}
	if len(paths[0].Tasks) != 1 || len(paths[1].Tasks) != 2 {
		t.Fatalf("unexpected path lengths %+v", paths)
	}
}

func TestMostAccurate(t *testing.T) {
	g := twoSinkTree()
	if got := g.Tasks[0].MostAccurate(); got != 1 {
		t.Fatalf("MostAccurate = %d, want 1", got)
	}
}

func TestMaxAccuracyAveragesPaths(t *testing.T) {
	g := twoSinkTree()
	// Best variants: det d1 (1.0), car c1 (1.0), face f0 (1.0) →
	// both paths have accuracy 1.0, average 1.0.
	if got := g.MaxAccuracy(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("MaxAccuracy = %g, want 1", got)
	}
	// Lower the detector's best accuracy; both paths shrink.
	g.Tasks[0].Variants[1].Accuracy = 0.9
	if got := g.MaxAccuracy(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("MaxAccuracy = %g, want 0.9", got)
	}
}

// randomTree generates a random rooted tree for property tests.
func randomTree(rng *rand.Rand, n int) *Graph {
	g := &Graph{Name: "rand"}
	for i := 0; i < n; i++ {
		t := Task{ID: TaskID(i), Name: "t"}
		nv := 1 + rng.Intn(3)
		for k := 0; k < nv; k++ {
			t.Variants = append(t.Variants, Variant{
				Name:       "v",
				Accuracy:   0.5 + 0.5*rng.Float64(),
				Alpha:      0.001 + 0.01*rng.Float64(),
				Beta:       0.001 + 0.01*rng.Float64(),
				MultFactor: 0.5 + 2*rng.Float64(),
			})
		}
		g.Tasks = append(g.Tasks, t)
	}
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		g.Tasks[parent].Children = append(g.Tasks[parent].Children,
			Child{Task: TaskID(i), BranchRatio: 0.2 + 0.8*rng.Float64()})
	}
	return g
}

func TestRandomTreesValidateAndEnumerate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		g := randomTree(rng, n)
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Leaf count equals task-path count (no interior outputs).
		leaves := 0
		for i := range g.Tasks {
			if len(g.Tasks[i].Children) == 0 {
				leaves++
			}
		}
		paths := g.TaskPaths()
		if len(paths) != leaves {
			t.Logf("seed %d: %d paths for %d leaves", seed, len(paths), leaves)
			return false
		}
		// Every path starts at the root, ends at a sink, follows edges.
		for _, p := range paths {
			if p.Tasks[0] != 0 {
				return false
			}
			if !g.Tasks[p.Tasks[len(p.Tasks)-1]].IsSink() {
				return false
			}
			for i := 0; i+1 < len(p.Tasks); i++ {
				found := false
				for _, c := range g.Tasks[p.Tasks[i]].Children {
					if c.Task == p.Tasks[i+1] {
						found = true
						if math.Abs(c.BranchRatio-p.BranchRatios[i+1]) > 1e-12 {
							return false
						}
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
