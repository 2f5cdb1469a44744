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
// accuracy scaling, saturation) at a fuzzed demand, with fuzzed bound
// sequences. The seed corpus runs under plain `go test`.
func FuzzStepModelWarmBounds(f *testing.F) {
	var allocs []*Allocator
	for _, g := range []*pipeline.Graph{profiles.TrafficTree(), profiles.SocialMedia()} {
		prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
		meta := NewMetadataStore(g, prof, 0.250, profiles.Batches)
		a, err := NewAllocator(meta, AllocatorOptions{
			Servers: 20, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
		})
		if err != nil {
			f.Fatal(err)
		}
		allocs = append(allocs, a)
	}
	steps := []stepKind{stepHardware, stepAccuracy, stepSaturation}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		f.Add(uint8(i), uint8(i/2), uint16(40+rng.Intn(1500)), lptest.SeedScript(rng, 8+rng.Intn(24)))
	}
	f.Fuzz(func(t *testing.T, pipe, step uint8, demand uint16, script []byte) {
		a := allocs[int(pipe)%len(allocs)]
		m := a.buildStepModel(steps[int(step)%len(steps)])
		m.set(float64(demand), a.counts)
		if err := lptest.CheckWarm(m.prob, script); err != nil {
			t.Fatalf("pipeline %d step %d demand %d: %v", int(pipe)%len(allocs), int(step)%len(steps), demand, err)
		}
	})
}
