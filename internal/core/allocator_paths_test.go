package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// fleetClasses are the plan-fleet cell's hardware classes.
func fleetClasses() []profiles.Class {
	return []profiles.Class{
		{Name: "fast", Count: 200, Speed: 2.0},
		{Name: "mid", Count: 400, Speed: 1.0},
		{Name: "slow", Count: 400, Speed: 0.5},
	}
}

// pathSetAllocator builds the allocator whose path set the tests and
// benchmarks below enumerate: one of the three built-in pipelines at a 250 ms
// SLO and 2 ms per hop, on 20 homogeneous servers or on the plan-fleet cell's
// three classes (profiler seed 11), with an optional accuracy floor.
func pathSetAllocator(tb testing.TB, g *pipeline.Graph, fleet bool, minAcc float64) *Allocator {
	tb.Helper()
	opts := AllocatorOptions{Servers: 20, NetLatencySec: 0.002, MinPathAccuracy: minAcc}
	var meta *MetadataStore
	if fleet {
		classes := fleetClasses()
		prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
		meta = NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
		opts.Servers = 1000
	} else {
		meta = NewMetadataStore(g, (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches), 0.250, profiles.Batches)
	}
	a, err := NewAllocator(meta, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// hashPathSet is FNV-1a over the allocator's path set, in order: per path
// its configuration indices, sink, and the bits of its accuracy, latency and
// every multiplier; then per sink the indices of its paths.
func hashPathSet(a *Allocator) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(a.paths)))
	for _, p := range a.paths {
		put(uint64(len(p.cfgs)))
		for _, ci := range p.cfgs {
			put(uint64(ci))
		}
		put(uint64(p.sink))
		put(math.Float64bits(p.acc))
		put(math.Float64bits(p.totalLat))
		for _, m := range p.mults {
			put(math.Float64bits(m))
		}
	}
	put(uint64(len(a.pathsBySink)))
	for _, ps := range a.pathsBySink {
		put(uint64(len(ps)))
		for _, pi := range ps {
			put(uint64(pi))
		}
	}
	return h.Sum64()
}

// The path set is what every step model, plan and route table is built on,
// so the per-group enumeration in build must reproduce it bit for bit. The
// hashes and counts were recorded from the pairwise dominance filter it
// replaced, at the commit before it was removed: the three built-in
// pipelines on one class and on the plan-fleet cell's three, and
// traffic-analysis under a 0.9 accuracy floor.
func TestPathSetMatchesRecorded(t *testing.T) {
	for _, c := range []struct {
		g      *pipeline.Graph
		fleet  bool
		minAcc float64
		paths  int
		hash   uint64
	}{
		{profiles.TrafficTree(), false, 0, 280, 0x497db62b03b56bc5},
		{profiles.SocialMedia(), false, 0, 217, 0xa4b13c36ab42d883},
		{profiles.TrafficChain(), false, 0, 45, 0xb264d2c363cac475},
		{profiles.TrafficTree(), true, 0, 2401, 0xbea32d1941cb002f},
		{profiles.SocialMedia(), true, 0, 1748, 0x850d81e1cb5f0678},
		{profiles.TrafficChain(), true, 0, 513, 0xebc589d65d1b6913},
		{profiles.TrafficTree(), false, 0.9, 80, 0xe878976cc04c6a8a},
	} {
		a := pathSetAllocator(t, c.g, c.fleet, c.minAcc)
		if got := len(a.paths); got != c.paths {
			t.Errorf("%s (fleet %v, floor %v): %d paths, recorded %d", c.g.Name, c.fleet, c.minAcc, got, c.paths)
		}
		if got := hashPathSet(a); got != c.hash {
			t.Errorf("%s (fleet %v, floor %v): path-set hash %#x, recorded %#x", c.g.Name, c.fleet, c.minAcc, got, c.hash)
		}
	}
}

// BenchmarkNewAllocator measures building an allocator — the configuration
// graph and its path set — which every tenant pays once at set-up: the
// traffic-analysis tree on one class, and the traffic chain and the tree on
// the plan-fleet cell's three classes.
func BenchmarkNewAllocator(b *testing.B) {
	for _, c := range []struct {
		name  string
		g     *pipeline.Graph
		fleet bool
	}{
		{"traffic-1class", profiles.TrafficTree(), false},
		{"chain-3class", profiles.TrafficChain(), true},
		{"traffic-3class", profiles.TrafficTree(), true},
	} {
		meta := pathSetAllocator(b, c.g, c.fleet, 0).meta
		opts := AllocatorOptions{Servers: 20, NetLatencySec: 0.002}
		if c.fleet {
			opts.Servers = 1000
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewAllocator(meta, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// referencePaths is the path enumeration build replaced, kept as the fuzz
// target's oracle: every latency-feasible batch combination of a variant
// sequence is tested for dominance against every other one, comparability
// checked pair by pair. It reads a's configurations and returns the path set
// build must have produced from them.
func referencePaths(a *Allocator) ([]cfgPath, [][]int) {
	g := a.meta.Graph()
	sinkIdx := map[pipeline.TaskID]int{}
	for s, id := range a.sinks {
		sinkIdx[id] = s
	}
	sinkCount := make([]int, len(g.Tasks))
	for _, tp := range g.TaskPaths() {
		for _, id := range tp.Tasks {
			sinkCount[id]++
		}
	}
	var paths []cfgPath
	bySink := make([][]int, len(a.sinks))
	for _, tp := range g.TaskPaths() {
		budget := a.meta.SLO()/2 - float64(len(tp.Tasks))*a.opts.NetLatencySec
		sink := sinkIdx[tp.Tasks[len(tp.Tasks)-1]]
		hops := len(tp.Tasks)
		byVariant := make([]map[int][]int, hops)
		for h, task := range tp.Tasks {
			byVariant[h] = map[int][]int{}
			for _, ci := range a.byTask[task] {
				v := a.cfgs[ci].variant
				byVariant[h][v] = append(byVariant[h][v], ci)
			}
		}
		variantChoice := make([]int, hops)
		cfgChoice := make([]int, hops)
		var combos [][]int
		var enumBatches func(hop int, lat float64)
		enumBatches = func(hop int, lat float64) {
			if hop == hops {
				combos = append(combos, append([]int(nil), cfgChoice...))
				return
			}
			for _, ci := range byVariant[hop][variantChoice[hop]] {
				if nl := lat + a.cfgs[ci].lat; nl <= budget {
					cfgChoice[hop] = ci
					enumBatches(hop+1, nl)
				}
			}
		}
		shared := make([]bool, hops)
		for h, id := range tp.Tasks {
			shared[h] = sinkCount[id] > 1
		}
		emit := func() {
			combos = combos[:0]
			enumBatches(0, 0)
			for i, combo := range combos {
				dominated := false
				for j, other := range combos {
					if i == j {
						continue
					}
					geq, strict, comparable := true, false, true
					for h := range combo {
						if shared[h] {
							if other[h] != combo[h] {
								comparable = false
								break
							}
							continue
						}
						if a.cfgs[other[h]].class != a.cfgs[combo[h]].class {
							comparable = false
							break
						}
						qa, qb := a.cfgs[other[h]].qps, a.cfgs[combo[h]].qps
						if qa < qb {
							geq = false
							break
						}
						if qa > qb {
							strict = true
						}
					}
					if comparable && geq && (strict || j < i) {
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				pth := cfgPath{cfgs: append([]int(nil), combo...), sink: sink}
				pth.acc = 1
				pth.mults = make([]float64, hops)
				m := 1.0
				for h, ci := range combo {
					c := &a.cfgs[ci]
					pth.totalLat += c.lat
					m *= tp.BranchRatios[h]
					pth.mults[h] = m
					m *= a.meta.MultFactor(c.task, c.variant)
					pth.acc *= c.acc
				}
				if a.opts.MinPathAccuracy > 0 && pth.acc < a.opts.MinPathAccuracy {
					continue
				}
				bySink[sink] = append(bySink[sink], len(paths))
				paths = append(paths, pth)
			}
		}
		var enumVariants func(hop int)
		enumVariants = func(hop int) {
			if hop == hops {
				emit()
				return
			}
			for v := range g.Tasks[tp.Tasks[hop]].Variants {
				variantChoice[hop] = v
				enumVariants(hop + 1)
			}
		}
		enumVariants(0)
	}
	return paths, bySink
}

// samePaths reports the first difference between two path sets, comparing
// every float by its bits, or "" when there is none.
func samePaths(got, want []cfgPath, gotBySink, wantBySink [][]int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.cfgs, w.cfgs) || g.sink != w.sink ||
			math.Float64bits(g.acc) != math.Float64bits(w.acc) ||
			math.Float64bits(g.totalLat) != math.Float64bits(w.totalLat) ||
			len(g.mults) != len(w.mults) {
			return fmt.Sprintf("path %d is %+v, want %+v", i, g, w)
		}
		for h := range g.mults {
			if math.Float64bits(g.mults[h]) != math.Float64bits(w.mults[h]) {
				return fmt.Sprintf("path %d hop %d multiplier %v, want %v", i, h, g.mults[h], w.mults[h])
			}
		}
	}
	if len(gotBySink) != len(wantBySink) {
		return fmt.Sprintf("%d sinks, want %d", len(gotBySink), len(wantBySink))
	}
	for s := range gotBySink {
		if !slices.Equal(gotBySink[s], wantBySink[s]) {
			return fmt.Sprintf("sink %d paths %v, want %v", s, gotBySink[s], wantBySink[s])
		}
	}
	return ""
}

// FuzzPathEnumeration checks build's path set against the pairwise filter it
// replaced, on the three built-in pipelines over one to three hardware
// classes with drawn profiles: per (variant, class, batch) a latency that
// need not grow with the batch and a throughput that is sometimes zero (so
// equal combinations occur and the tie rule decides), under a drawn SLO and
// accuracy floor. The seed corpus runs under plain `go test`.
func FuzzPathEnumeration(f *testing.F) {
	for i := 0; i < 24; i++ {
		f.Add(int64(i), uint8(i), uint8(i/3), uint8(40+9*i), uint8(0))
	}
	f.Add(int64(7), uint8(0), uint8(2), uint8(200), uint8(200))
	f.Add(int64(8), uint8(2), uint8(1), uint8(255), uint8(230))
	f.Add(int64(9), uint8(1), uint8(0), uint8(8), uint8(0))      // no path fits the SLO
	f.Add(int64(10), uint8(0), uint8(1), uint8(120), uint8(255)) // none reaches the floor
	graphs := []func() *pipeline.Graph{profiles.TrafficTree, profiles.SocialMedia, profiles.TrafficChain}
	f.Fuzz(func(t *testing.T, seed int64, graph, nClasses, sloMs, floor uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := graphs[int(graph)%len(graphs)]()
		classes := make([]profiles.Class, 1+int(nClasses)%3)
		prof := make([][][]profiles.Profile, len(classes))
		for cl := range classes {
			classes[cl] = profiles.Class{Name: fmt.Sprintf("c%d", cl), Count: 10, Speed: 1}
			prof[cl] = make([][]profiles.Profile, len(g.Tasks))
			for i := range g.Tasks {
				prof[cl][i] = make([]profiles.Profile, len(g.Tasks[i].Variants))
				for k := range prof[cl][i] {
					p := profiles.Profile{Batches: profiles.Batches}
					for _, b := range profiles.Batches {
						lat := 0.002 * (1 + float64(b)) * (0.3 + 1.4*rng.Float64())
						qps := float64(b) / lat * (0.5 + rng.Float64())
						if rng.Intn(8) == 0 {
							qps = 0
						}
						p.LatencySec = append(p.LatencySec, lat)
						p.QPS = append(p.QPS, qps)
					}
					prof[cl][i][k] = p
				}
			}
		}
		meta := NewMetadataStoreHetero(g, classes, prof, float64(sloMs)/1000, profiles.Batches)
		opts := AllocatorOptions{NetLatencySec: 0.002, MinPathAccuracy: float64(floor) / 255}
		a, err := NewAllocator(meta, opts)
		if err != nil {
			// An allocator that refuses must have had no path to offer:
			// rebuild the configurations without the checks to see.
			a = &Allocator{meta: meta, opts: opts, classes: classes}
			a.build()
			if want, _ := referencePaths(a); len(want) > 0 {
				t.Fatalf("NewAllocator refused (%v) with %d paths to offer", err, len(want))
			}
			return
		}
		want, wantBySink := referencePaths(a)
		if diff := samePaths(a.paths, want, a.pathsBySink, wantBySink); diff != "" {
			t.Fatal(diff)
		}
	})
}

// An SLO no path fits and an accuracy floor no fitting path reaches are
// different mistakes, and the error names the one that was made: at 45 ms
// traffic-analysis has paths, but none as accurate as 0.99. A floor that is
// not a number is refused rather than read as no floor.
func TestNewAllocatorErrorNamesWhatRemovedEveryPath(t *testing.T) {
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	for _, c := range []struct {
		sloSec, floor float64
		want          []string
	}{
		{0.020, 0, []string{"fits the 20ms SLO"}},
		{0.045, 0.99, []string{"minimum path accuracy 0.99", "fit the 45ms SLO reaches 0.928"}},
		{0.250, math.NaN(), []string{"finite", "NaN"}},
		{0.250, math.Inf(1), []string{"finite", "+Inf"}},
		{0.250, math.Inf(-1), []string{"finite", "-Inf"}},
	} {
		meta := NewMetadataStore(g, prof, c.sloSec, profiles.Batches)
		_, err := NewAllocator(meta, AllocatorOptions{Servers: 20, NetLatencySec: 0.002, MinPathAccuracy: c.floor})
		if err == nil {
			t.Fatalf("SLO %v, floor %v: want an error", c.sloSec, c.floor)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("SLO %v, floor %v: error %q does not say %q", c.sloSec, c.floor, err, w)
			}
		}
	}
	// Without the floor the 45 ms SLO is servable.
	meta := NewMetadataStore(g, prof, 0.045, profiles.Batches)
	if _, err := NewAllocator(meta, AllocatorOptions{Servers: 20, NetLatencySec: 0.002}); err != nil {
		t.Fatal(err)
	}
}
