// Package pipeline models ML inference pipelines as directed rooted trees,
// following §2.1 of the Loki paper: each vertex is a task served by a family
// of model variants, each edge carries the flow of intermediate queries from
// a task to one of its children, and every root-to-sink path has its own
// end-to-end accuracy.
package pipeline

import (
	"errors"
	"fmt"
)

// TaskID identifies a task within a Graph (its index in Graph.Tasks).
type TaskID int

// Variant is one model variant of a task: a concrete network (e.g.
// YOLOv5n) with a profiled accuracy, a batch-latency profile, and a
// multiplicative factor (the mean number of intermediate queries it emits
// downstream per input query, r(i,k) in the paper).
type Variant struct {
	Name string

	// Accuracy is the profiled accuracy normalized by the most accurate
	// variant of the same family, as the paper does in §6.1. In (0, 1].
	Accuracy float64

	// RawAccuracy is the unnormalized profiled metric (e.g. top-1 or mAP),
	// kept for reporting.
	RawAccuracy float64

	// Alpha and Beta define the batch latency profile
	// latency(b) = Alpha + Beta·b seconds, the standard linear model for
	// GPU batch inference. Throughput at batch b is b/latency(b).
	Alpha, Beta float64

	// MultFactor is the mean number of downstream queries emitted per
	// input query (before edge branch ratios are applied).
	MultFactor float64
}

// Latency returns the batch processing latency in seconds for batch size b.
func (v *Variant) Latency(b int) float64 {
	return v.Alpha + v.Beta*float64(b)
}

// Child is a directed edge from a task to one of its children.
type Child struct {
	Task TaskID
	// BranchRatio is the fraction of the parent's output queries that flow
	// down this edge (e.g. the fraction of detected objects that are cars).
	// The ratios of a task's children need not sum to 1 if some outputs are
	// discarded, but must each lie in (0, 1].
	BranchRatio float64
}

// Task is one stage of the pipeline.
type Task struct {
	ID       TaskID
	Name     string
	Variants []Variant
	Children []Child

	// Output marks a task whose result is also a pipeline output even
	// though it has children (§2.1 draws sinks as separate vertices, so an
	// interior task may feed both a sink and downstream tasks — the
	// social-media pipeline's classification task does). Leaves are
	// outputs regardless of this flag.
	Output bool
}

// IsSink reports whether the task terminates a root-to-sink path.
func (t *Task) IsSink() bool { return t.Output || len(t.Children) == 0 }

// MostAccurate returns the index of the task's most accurate variant.
func (t *Task) MostAccurate() int {
	best := 0
	for k := 1; k < len(t.Variants); k++ {
		if t.Variants[k].Accuracy > t.Variants[best].Accuracy {
			best = k
		}
	}
	return best
}

// Graph is an inference pipeline: a directed rooted tree of tasks. Task 0 is
// the root (the source feeds it); leaves are sinks.
type Graph struct {
	Name  string
	Tasks []Task
}

// Errors returned by Validate.
var (
	errEmpty     = errors.New("pipeline: graph has no tasks")
	errNotATree  = errors.New("pipeline: graph is not a rooted tree")
	errBadDef    = errors.New("pipeline: malformed definition")
	errNoVariant = errors.New("pipeline: task has no variants")
)

// Validate checks that the graph is a well-formed rooted tree with sane
// variant profiles.
func (g *Graph) Validate() error {
	if len(g.Tasks) == 0 {
		return errEmpty
	}
	indeg := make([]int, len(g.Tasks))
	for i, t := range g.Tasks {
		if t.ID != TaskID(i) {
			return fmt.Errorf("%w: task %d has ID %d", errBadDef, i, t.ID)
		}
		if len(t.Variants) == 0 {
			return fmt.Errorf("%w: task %q", errNoVariant, t.Name)
		}
		for _, v := range t.Variants {
			if v.Accuracy <= 0 || v.Accuracy > 1+1e-9 {
				return fmt.Errorf("%w: variant %q accuracy %g outside (0,1]", errBadDef, v.Name, v.Accuracy)
			}
			if v.Alpha < 0 || v.Beta <= 0 {
				return fmt.Errorf("%w: variant %q latency profile (α=%g, β=%g)", errBadDef, v.Name, v.Alpha, v.Beta)
			}
			if v.MultFactor < 0 {
				return fmt.Errorf("%w: variant %q negative multiplicative factor", errBadDef, v.Name)
			}
		}
		for _, c := range t.Children {
			if c.Task <= 0 || int(c.Task) >= len(g.Tasks) {
				return fmt.Errorf("%w: task %q has child %d", errBadDef, t.Name, c.Task)
			}
			if c.BranchRatio <= 0 || c.BranchRatio > 1+1e-9 {
				return fmt.Errorf("%w: edge %q→%d branch ratio %g outside (0,1]", errBadDef, t.Name, c.Task, c.BranchRatio)
			}
			indeg[c.Task]++
		}
	}
	if indeg[0] != 0 {
		return fmt.Errorf("%w: root has incoming edges", errNotATree)
	}
	for i := 1; i < len(g.Tasks); i++ {
		if indeg[i] != 1 {
			return fmt.Errorf("%w: task %q has in-degree %d", errNotATree, g.Tasks[i].Name, indeg[i])
		}
	}
	// Reachability from the root guarantees connectedness (with the
	// in-degree conditions above, it also excludes cycles).
	seen := make([]bool, len(g.Tasks))
	var walk func(TaskID) bool
	walk = func(id TaskID) bool {
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, c := range g.Tasks[id].Children {
			if !walk(c.Task) {
				return false
			}
		}
		return true
	}
	if !walk(0) {
		return fmt.Errorf("%w: cycle reachable from root", errNotATree)
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("%w: task %q unreachable from root", errNotATree, g.Tasks[i].Name)
		}
	}
	return nil
}

// Sinks returns the tasks that terminate root-to-sink paths: all leaves plus
// interior tasks marked Output.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range g.Tasks {
		if g.Tasks[i].IsSink() {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TopoOrder returns the tasks in topological (parent-before-child) order.
// For a rooted tree this is a preorder walk from the root.
func (g *Graph) TopoOrder() []TaskID {
	out := make([]TaskID, 0, len(g.Tasks))
	var walk func(TaskID)
	walk = func(id TaskID) {
		out = append(out, id)
		for _, c := range g.Tasks[id].Children {
			walk(c.Task)
		}
	}
	walk(0)
	return out
}

// Parent returns the parent of task id and the edge's branch ratio, or
// (-1, 0) for the root.
func (g *Graph) Parent(id TaskID) (TaskID, float64) {
	for i, t := range g.Tasks {
		for _, c := range t.Children {
			if c.Task == id {
				return TaskID(i), c.BranchRatio
			}
		}
	}
	return -1, 0
}

// TaskPath is a root-to-sink sequence of tasks together with the branch
// ratio of each hop (BranchRatios[i] is the ratio on the edge entering
// Tasks[i]; it is 1 for the root).
type TaskPath struct {
	Tasks        []TaskID
	BranchRatios []float64
}

// TaskPaths enumerates every root-to-sink path of the tree. A path ends at
// every leaf and at every interior task marked Output.
func (g *Graph) TaskPaths() []TaskPath {
	var out []TaskPath
	var tasks []TaskID
	var ratios []float64
	var walk func(id TaskID, ratio float64)
	walk = func(id TaskID, ratio float64) {
		tasks = append(tasks, id)
		ratios = append(ratios, ratio)
		if g.Tasks[id].IsSink() {
			out = append(out, TaskPath{
				Tasks:        append([]TaskID(nil), tasks...),
				BranchRatios: append([]float64(nil), ratios...),
			})
		}
		for _, c := range g.Tasks[id].Children {
			walk(c.Task, c.BranchRatio)
		}
		tasks = tasks[:len(tasks)-1]
		ratios = ratios[:len(ratios)-1]
	}
	walk(0, 1)
	return out
}

// MaxAccuracy returns the end-to-end pipeline accuracy when every task uses
// its most accurate variant, averaged over all root-to-sink paths (the
// paper's definition of pipeline accuracy in §2.1).
func (g *Graph) MaxAccuracy() float64 {
	paths := g.TaskPaths()
	sum := 0.0
	for _, tp := range g.TaskPaths() {
		acc := 1.0
		for _, t := range tp.Tasks {
			task := &g.Tasks[t]
			acc *= task.Variants[task.MostAccurate()].Accuracy
		}
		sum += acc
	}
	return sum / float64(len(paths))
}
