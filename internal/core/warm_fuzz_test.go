package core

import (
	"math/rand"
	"testing"

	"loki/internal/lp/lptest"
	"loki/internal/pipeline"
	"loki/internal/profiles"
)

// FuzzStepModelWarmBounds runs the lp package's warm-versus-cold differential
// check on the models branch and bound actually plunges through: the
// traffic-analysis and social-media pipelines' step LPs (hardware scaling,
// accuracy scaling, saturation) on 20 uniform servers, and the
// traffic-analysis pipeline's on a 3-class fleet — whose class-expanded
// accuracy and saturation models (251 × 2584) are the largest tableaux the
// planner builds — at a fuzzed demand, with fuzzed bound sequences. The seed
// corpus runs under plain `go test`.
func FuzzStepModelWarmBounds(f *testing.F) {
	var allocs []*Allocator
	// servers 0 leaves the cluster size to the metadata store's classes.
	add := func(meta *MetadataStore, servers int) {
		a, err := NewAllocator(meta, AllocatorOptions{
			Servers: servers, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
		})
		if err != nil {
			f.Fatal(err)
		}
		allocs = append(allocs, a)
	}
	for _, g := range []*pipeline.Graph{profiles.TrafficTree(), profiles.SocialMedia()} {
		prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
		add(NewMetadataStore(g, prof, 0.250, profiles.Batches), 20)
	}
	hetero3 := []profiles.Class{
		{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: 3.2},
		{Name: "v100", Count: 8, Speed: 1.0, CostPerHour: 1.2},
		{Name: "t4", Count: 12, Speed: 0.5, CostPerHour: 0.55},
	}
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, hetero3)
	add(NewMetadataStoreHetero(g, hetero3, prof, 0.250, profiles.Batches), 0)
	steps := []stepKind{stepHardware, stepAccuracy, stepSaturation}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		f.Add(uint8(i%2), uint8(i/2), uint16(40+rng.Intn(1500)), lptest.SeedScript(rng, 8+rng.Intn(24)))
	}
	// The 3-class fleet's accuracy and saturation models, from the demands of
	// BenchmarkHeteroAllocate's walk that reach them to one past what hardware
	// scaling alone can serve.
	for i, demand := range []uint16{350, 500, 600, 900} {
		f.Add(uint8(2), uint8(1+i%2), demand, lptest.SeedScript(rng, 8+rng.Intn(24)))
	}
	f.Fuzz(func(t *testing.T, pipe, step uint8, demand uint16, script []byte) {
		a := allocs[int(pipe)%len(allocs)]
		m := a.buildStepModel(steps[int(step)%len(steps)])
		m.set(float64(demand), a.counts)
		if err := lptest.CheckWarm(m.prob, m.groups, script); err != nil {
			t.Fatalf("pipeline %d step %d demand %d: %v", int(pipe)%len(allocs), int(step)%len(steps), demand, err)
		}
	})
}
