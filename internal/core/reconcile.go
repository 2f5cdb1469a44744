package core

import (
	"fmt"
	"slices"

	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// hostKey is what makes replicas interchangeable: a worker already hosting a
// spec's (task, variant, batch, class) serves it without loading anything.
type hostKey struct {
	task                  pipeline.TaskID
	variant, batch, class int
}

func hostKeyOf(s *WorkerSpec) hostKey { return hostKey{s.Task, s.Variant, s.MaxBatch, s.Class} }

// SameConfig reports whether a worker hosting a serves b without a swap.
func SameConfig(a, b *WorkerSpec) bool { return hostKeyOf(a) == hostKeyOf(b) }

// Reconciler places a plan's specs on a fixed pool of physical workers laid
// out class by class, and remembers the placement and which workers are down
// between publishes. Each tenant's cluster in the serving engine owns one and
// applies its effects (queues, swaps, wake-ups) to the workers Reconcile
// returns. The rule: a spec
// first keeps the lowest up worker already hosting its exact configuration;
// the specs left over then take, in spec order, the lowest unclaimed up worker
// of their class. Swaps never cross classes, and a spec whose class has no
// free worker stays unplaced. A publish costs time proportional to the plan,
// not the pool, and no allocation: storage is sized once and reused. Not safe
// for concurrent use.
type Reconciler struct {
	classStart []int         // class c owns workers [classStart[c], classStart[c+1])
	held       []*WorkerSpec // per worker: the spec placed on it, nil when idle or down
	down       []bool        // per worker
	active     []int         // ascending: the workers with held != nil

	// Per-publish scratch.
	head      map[hostKey]int32 // 1 + lowest unclaimed incumbent of the key, 0 when none
	next      []int32           // per worker: 1 + next incumbent of the same key
	cursor    []int             // per class: where the scan for a free worker resumes
	unmatched []int             // indices of specs that found no incumbent
	touched   []int
}

// NewReconciler lays out an idle, all-up pool of the classes' total count.
func NewReconciler(classes []profiles.Class) *Reconciler {
	r := &Reconciler{head: map[hostKey]int32{}, cursor: make([]int, len(classes)), classStart: []int{0}}
	for _, cl := range classes {
		r.classStart = append(r.classStart, r.classStart[len(r.classStart)-1]+cl.Count)
	}
	n := r.classStart[len(classes)]
	r.held, r.down, r.next = make([]*WorkerSpec, n), make([]bool, n), make([]int32, n)
	return r
}

// Held returns the spec placed on worker phys, nil when it is idle or down.
func (r *Reconciler) Held(phys int) *WorkerSpec { return r.held[phys] }

// Placed returns how many workers hold a spec.
func (r *Reconciler) Placed() int { return len(r.active) }

// SetDown marks a worker crashed (it loses its spec and Reconcile passes over
// it) or recovered (idle, claimable again), and reports whether that is news.
func (r *Reconciler) SetDown(phys int, down bool) bool {
	if down && r.held[phys] != nil {
		i, _ := slices.BinarySearch(r.active, phys)
		r.active = slices.Delete(r.active, i, i+1)
		r.held[phys] = nil
	}
	changed := r.down[phys] != down
	r.down[phys] = down
	return changed
}

// Reconcile places specs and returns, ascending, every worker that held a spec
// before or holds one now (Held says which); all others were idle and stay
// idle. The slice is valid until the next call.
func (r *Reconciler) Reconcile(specs []WorkerSpec) []int {
	// Index the incumbents by key, lowest worker first, and vacate them: from
	// here on held[p] != nil means "claimed by this publish".
	clear(r.head)
	for _, p := range slices.Backward(r.active) {
		k := hostKeyOf(r.held[p])
		r.next[p], r.head[k], r.held[p] = r.head[k], int32(p+1), nil
	}
	r.touched = append(r.touched[:0], r.active...)
	r.unmatched = r.unmatched[:0]
	for i := range specs {
		k := hostKeyOf(&specs[i])
		if p := r.head[k]; p != 0 {
			r.head[k], r.held[p-1] = r.next[p-1], &specs[i]
		} else {
			r.unmatched = append(r.unmatched, i)
		}
	}
	copy(r.cursor, r.classStart)
	for _, i := range r.unmatched {
		c := specs[i].Class
		if c < 0 || c >= len(r.cursor) {
			continue
		}
		p, end := r.cursor[c], r.classStart[c+1]
		for p < end && (r.held[p] != nil || r.down[p]) {
			p++
		}
		if p < end {
			r.held[p] = &specs[i]
			r.touched = append(r.touched, p)
			p++
		}
		r.cursor[c] = p
	}
	// The picks may repeat a vacated incumbent. A sorted run followed by a few
	// picks is a pattern slices.Sort finishes in near-linear time.
	slices.Sort(r.touched)
	r.touched = slices.Compact(r.touched)
	r.active = r.active[:0]
	for _, p := range r.touched {
		if r.held[p] != nil {
			r.active = append(r.active, p)
		}
	}
	return r.touched
}

// AssignedNames renders every (task, variant) of g as "task/variant", the
// label the engines put on a worker's telemetry row, once at construction.
func AssignedNames(g *pipeline.Graph) [][]string {
	names := make([][]string, len(g.Tasks))
	for t := range g.Tasks {
		for v := range g.Tasks[t].Variants {
			names[t] = append(names[t], fmt.Sprintf("%s/%d", g.Tasks[t].Name, v))
		}
	}
	return names
}
