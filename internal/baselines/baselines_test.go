package baselines

import (
	"strings"
	"testing"

	"loki/internal/core"
	"loki/internal/profiles"
)

func aopts() core.AllocatorOptions {
	return core.AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30,
	}
}

func trafficMeta() *core.MetadataStore {
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	return core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
}

func TestInferLineUsesOnlyMostAccurateVariants(t *testing.T) {
	meta := trafficMeta()
	b, err := NewInferLine(meta, aopts())
	if err != nil {
		t.Fatal(err)
	}
	g := meta.Graph()
	for _, d := range []float64{100, 400, 900} {
		plan, err := b.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range plan.Assignments {
			if a.Variant != g.Tasks[a.Task].MostAccurate() {
				t.Fatalf("demand %g: InferLine hosted variant %d of task %d", d, a.Variant, a.Task)
			}
		}
		if plan.ExpectedAccuracy < 1-1e-9 {
			t.Fatalf("demand %g: InferLine accuracy %g, must stay 1.0", d, plan.ExpectedAccuracy)
		}
	}
}

func TestInferLineScalesHardwareThenSaturates(t *testing.T) {
	meta := trafficMeta()
	b, err := NewInferLine(meta, aopts())
	if err != nil {
		t.Fatal(err)
	}
	low, err := b.Allocate(150)
	if err != nil {
		t.Fatal(err)
	}
	if low.Mode != core.HardwareScaling || low.ServersUsed >= 20 {
		t.Fatalf("low demand: mode=%v servers=%d", low.Mode, low.ServersUsed)
	}
	high, err := b.Allocate(1200)
	if err != nil {
		t.Fatal(err)
	}
	if high.Mode != core.Saturated {
		t.Fatalf("high demand: mode=%v, want saturated (no accuracy scaling available)", high.Mode)
	}
	if high.ServedFraction >= 1 {
		t.Fatalf("high demand: served=%g, want <1", high.ServedFraction)
	}
}

// A capped InferLine solve validates its grant vector as the Loki allocator
// does: a negative class grant is refused even when the total looks fine.
func TestInferLineRejectsNegativeGrant(t *testing.T) {
	classes := []profiles.Class{{Name: "a", Count: 10, Speed: 1}, {Name: "b", Count: 10, Speed: 1}}
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := core.NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
	opts := aopts()
	opts.Servers = 0
	b, err := NewInferLine(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := b.AllocateCapped(300, []int{-1, 21})
	if err == nil || !strings.Contains(err.Error(), `negative grant -1 for hardware class "a"`) {
		t.Fatalf("caps [-1 21]: got plan %v, err %v; want the negative grant refused", plan, err)
	}
}

func TestProteusPartitionSumsToCluster(t *testing.T) {
	meta := trafficMeta()
	p, err := NewProteus(meta, aopts())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range p.taskShare {
		if s < 1 {
			t.Fatalf("task share %d < 1", s)
		}
		sum += s
	}
	if sum != 20 {
		t.Fatalf("shares sum to %d, want 20", sum)
	}
}

func TestProteusAlwaysUsesWholeCluster(t *testing.T) {
	meta := trafficMeta()
	p, err := NewProteus(meta, aopts())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{50, 400, 900} {
		plan, err := p.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		if plan.ServersUsed != 20 {
			t.Fatalf("demand %g: Proteus reports %d active servers, want all 20", d, plan.ServersUsed)
		}
		replicas := 0
		for _, a := range plan.Assignments {
			replicas += a.Replicas
		}
		if replicas != 20 {
			t.Fatalf("demand %g: %d replicas deployed, want the full partition", d, replicas)
		}
	}
}

func TestProteusRespectsPartitionBoundaries(t *testing.T) {
	meta := trafficMeta()
	p, err := NewProteus(meta, aopts())
	if err != nil {
		t.Fatal(err)
	}
	shares := p.taskShare
	plan, err := p.Allocate(600)
	if err != nil {
		t.Fatal(err)
	}
	perTask := map[int]int{}
	for _, a := range plan.Assignments {
		perTask[int(a.Task)] += a.Replicas
	}
	for task, n := range perTask {
		if n != shares[task] {
			t.Fatalf("task %d deployed %d replicas, share is %d", task, n, shares[task])
		}
	}
}

func TestProteusReactsToObservedTaskDemand(t *testing.T) {
	meta := trafficMeta()
	p, err := NewProteus(meta, aopts())
	if err != nil {
		t.Fatal(err)
	}
	// Without telemetry both allocations use the root demand fallback.
	before, err := p.Allocate(300)
	if err != nil {
		t.Fatal(err)
	}
	// Report heavy downstream demand on task 1: Proteus (scaling tasks
	// independently) must degrade task 1's accuracy to absorb it.
	for i := 0; i < 10; i++ {
		p.ObserveTaskDemand(1, 1800)
	}
	after, err := p.Allocate(300)
	if err != nil {
		t.Fatal(err)
	}
	if after.ExpectedAccuracy >= before.ExpectedAccuracy {
		t.Fatalf("accuracy %.4f → %.4f; observed overload on task 1 should reduce it",
			before.ExpectedAccuracy, after.ExpectedAccuracy)
	}
}

func TestProteusSocialMediaPartition(t *testing.T) {
	g := profiles.SocialMedia()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	p, err := NewProteus(meta, aopts())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range p.taskShare {
		sum += s
	}
	if sum != 20 {
		t.Fatalf("social shares sum to %d", sum)
	}
}
