package profiles

import (
	"math"
	"testing"

	"loki/internal/pipeline"
)

func TestAllPipelinesValidate(t *testing.T) {
	for _, g := range []*pipeline.Graph{TrafficChain(), TrafficTree(), SocialMedia()} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestThirtyTwoVariants(t *testing.T) {
	if got := TotalVariants(); got != 32 {
		t.Fatalf("TotalVariants = %d, want 32 (as in the paper)", got)
	}
}

func TestFamiliesNormalizedByBest(t *testing.T) {
	fams := map[string][]pipeline.Variant{
		"yolo": YOLOv5(), "effnet": EfficientNet(), "vgg": VGG(),
		"resnet": ResNet(), "clip": CLIPViT(),
	}
	for name, fam := range fams {
		best := 0.0
		for _, v := range fam {
			if v.Accuracy > best {
				best = v.Accuracy
			}
			if v.Accuracy <= 0 || v.Accuracy > 1 {
				t.Errorf("%s/%s: accuracy %g outside (0,1]", name, v.Name, v.Accuracy)
			}
		}
		if math.Abs(best-1.0) > 1e-9 {
			t.Errorf("%s: best normalized accuracy %g, want exactly 1", name, best)
		}
	}
}

// TestAccuracyThroughputTradeoff checks the Figure-3 property: within a
// family, higher accuracy comes with strictly lower peak throughput.
func TestAccuracyThroughputTradeoff(t *testing.T) {
	pr := &Profiler{}
	for _, fam := range [][]pipeline.Variant{YOLOv5(), EfficientNet(), VGG(), ResNet(), CLIPViT()} {
		for i := 1; i < len(fam); i++ {
			if fam[i].Accuracy <= fam[i-1].Accuracy {
				t.Fatalf("%s: accuracy not increasing along family", fam[i].Name)
			}
			pPrev := pr.ProfileVariant(&fam[i-1], Batches)
			pCur := pr.ProfileVariant(&fam[i], Batches)
			qPrev, _ := pPrev.MaxQPS()
			qCur, _ := pCur.MaxQPS()
			if qCur >= qPrev {
				t.Errorf("%s: more accurate variant is not slower (%.1f ≥ %.1f qps)",
					fam[i].Name, qCur, qPrev)
			}
		}
	}
}

// TestMultFactorGrowsWithDetectorAccuracy checks §4.2's workload
// multiplication effect: more accurate detectors emit more intermediate
// queries.
func TestMultFactorGrowsWithDetectorAccuracy(t *testing.T) {
	fam := YOLOv5()
	for i := 1; i < len(fam); i++ {
		if fam[i].MultFactor < fam[i-1].MultFactor {
			t.Fatalf("mult factor not monotone: %s %.2f < %s %.2f",
				fam[i].Name, fam[i].MultFactor, fam[i-1].Name, fam[i-1].MultFactor)
		}
	}
}

func TestProfilerMatchesAnalyticModel(t *testing.T) {
	v := YOLOv5()[4]
	p := (&Profiler{}).ProfileVariant(&v, Batches)
	for j, b := range p.Batches {
		wantLat := v.Latency(b)
		if math.Abs(p.LatencySec[j]-wantLat) > 1e-12 {
			t.Fatalf("batch %d latency %g, want %g", b, p.LatencySec[j], wantLat)
		}
		if math.Abs(p.QPS[j]-float64(b)/wantLat) > 1e-9 {
			t.Fatalf("batch %d qps %g, want %g", b, p.QPS[j], float64(b)/wantLat)
		}
	}
}

func TestProfilerJitterIsBounded(t *testing.T) {
	v := EfficientNet()[0]
	pr := &Profiler{Jitter: 0.05, Seed: 9}
	p := pr.ProfileVariant(&v, Batches)
	for j, b := range p.Batches {
		ref := v.Latency(b)
		if rel := math.Abs(p.LatencySec[j]-ref) / ref; rel > 0.05+1e-12 {
			t.Fatalf("batch %d jitter %g exceeds 5%%", b, rel)
		}
	}
}

func TestProfileGraphShape(t *testing.T) {
	g := TrafficTree()
	tables := (&Profiler{}).ProfileGraph(g, Batches)
	if len(tables) != len(g.Tasks) {
		t.Fatalf("got %d task tables, want %d", len(tables), len(g.Tasks))
	}
	for i := range tables {
		if len(tables[i]) != len(g.Tasks[i].Variants) {
			t.Fatalf("task %d: %d profiles for %d variants", i, len(tables[i]), len(g.Tasks[i].Variants))
		}
	}
}

func TestProfileLookupMissingBatch(t *testing.T) {
	v := VGG()[0]
	p := (&Profiler{}).ProfileVariant(&v, Batches)
	if _, ok := p.Throughput(3); ok {
		t.Fatal("batch 3 should not be profiled")
	}
	if _, ok := p.Latency(8); !ok {
		t.Fatal("batch 8 should be profiled")
	}
}
