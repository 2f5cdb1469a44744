package engine

import "loki/internal/profiles"

// faultPool tracks the shared pool's fault state at the physical-server
// level: the one record of which servers are up, read by liveByClass and
// Observe. Every tenant's cluster numbers the same physical machines (worker
// i is server i for every tenant), so victim selection happens once here and
// the same physical ids are applied to every tenant's cluster — all views of
// the pool agree on which servers are down or slow. Placement does not share
// that view: each tenant's core.Reconciler places replicas from the lowest
// free id of a class regardless of the other tenants, so tenants can hold
// the same ids while higher ones sit idle, and a crash can then down only
// idle servers.
//
// Selection is deterministic: within a class, the highest-index healthy
// worker fails (or straggles) first, and recovery restores exactly the ids
// the fault returned.
type faultPool struct {
	classes []profiles.Class
	offset  []int // first physical index of each class
	down    []bool
	slowed  []bool
}

func newFaultPool(classes []profiles.Class) *faultPool {
	p := &faultPool{classes: classes}
	total := 0
	for _, cl := range classes {
		p.offset = append(p.offset, total)
		total += cl.Count
	}
	p.down = make([]bool, total)
	p.slowed = make([]bool, total)
	return p
}

// classIndex resolves a fault event's class name; the empty name is the
// pool's first class.
func (p *faultPool) classIndex(name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	for i, cl := range p.classes {
		if cl.Name == name {
			return i, true
		}
	}
	return 0, false
}

// pickFail marks up to n healthy workers of the class down (n <= 0: the
// whole class) and returns their physical ids, highest index first.
func (p *faultPool) pickFail(class, n int) []int {
	return p.pick(class, n, p.down, p.down)
}

// pickSlow marks up to n healthy, full-speed workers of the class as
// stragglers and returns their physical ids, highest index first.
func (p *faultPool) pickSlow(class, n int) []int {
	return p.pick(class, n, p.slowed, p.down)
}

// pick selects up to n workers of the class that are neither marked nor
// excluded, marking them as it goes; n <= 0 selects every eligible worker.
func (p *faultPool) pick(class, n int, mark, exclude []bool) []int {
	lo := p.offset[class]
	hi := lo + p.classes[class].Count
	if n <= 0 {
		n = hi - lo
	}
	var out []int
	for i := hi - 1; i >= lo && len(out) < n; i-- {
		if mark[i] || exclude[i] {
			continue
		}
		mark[i] = true
		out = append(out, i)
	}
	return out
}

func (p *faultPool) recover(phys []int) {
	for _, i := range phys {
		p.down[i] = false
	}
}

func (p *faultPool) restore(phys []int) {
	for _, i := range phys {
		p.slowed[i] = false
	}
}

// live returns the per-class count of servers currently up.
func (p *faultPool) live() []int {
	out := make([]int, len(p.classes))
	for c, cl := range p.classes {
		n := cl.Count
		for i := p.offset[c]; i < p.offset[c]+cl.Count; i++ {
			if p.down[i] {
				n--
			}
		}
		out[c] = n
	}
	return out
}
