// Package profiles provides the model-variant profiles and pipeline
// definitions used throughout the reproduction, plus the Model Profiler
// component of Loki's Controller (§3).
//
// The paper evaluates 32 model variants from five families (yolov5,
// EfficientNet, vgg, resNet, CLIP-ViT) profiled on NVIDIA GTX 1080 Ti GPUs.
// We have no GPUs, so each variant here is a synthetic profile
// latency(b) = α + β·b whose constants are calibrated so that the published
// macro results hold: the accuracy spread within each family matches the
// real models (normalized by the family's most accurate variant, as §6.1
// does), and throughput spreads are set so the traffic-analysis pipeline on
// a 20-server cluster transitions between scaling phases near the demands
// Figure 1 reports (hardware-scaling limit ≈ 560 QPS, accuracy-scaling limit
// ≈ 2.7× higher). Absolute numbers are synthetic; shapes are the target.
package profiles

import "loki/internal/pipeline"

// Batches is the set of allowed batch sizes B (§4.1).
var Batches = []int{1, 2, 4, 8, 16, 32}

// v is a shorthand constructor.
func v(name string, accNorm, accRaw, alpha, beta, mult float64) pipeline.Variant {
	return pipeline.Variant{
		Name:        name,
		Accuracy:    accNorm,
		RawAccuracy: accRaw,
		Alpha:       alpha,
		Beta:        beta,
		MultFactor:  mult,
	}
}

// yolov5 returns the object-detection family (5 variants, n→x). Accuracy is
// COCO mAP50-95 normalized by YOLOv5x. The multiplicative factor is the mean
// number of objects each variant detects per frame: more accurate detectors
// find more objects (§4.2's workload-multiplication effect). Throughput
// spread within the family is narrow — calibrated so the phase-3 capacity
// bump in Figure 1 stays small relative to phase 2, as published.
func yolov5() []pipeline.Variant {
	return []pipeline.Variant{
		v("yolov5n", 0.552, 28.0, 0.0032, 0.00672, 1.57),
		v("yolov5s", 0.738, 37.4, 0.0040, 0.00688, 1.71),
		v("yolov5m", 0.895, 45.4, 0.0048, 0.00704, 1.86),
		v("yolov5l", 0.966, 49.0, 0.0056, 0.00728, 1.93),
		v("yolov5x", 1.000, 50.7, 0.0064, 0.00760, 2.00),
	}
}

// EfficientNet returns the car-classification family (8 variants, B0→B7).
// Accuracy is ImageNet top-1 normalized by B7; the B0 normalized accuracy of
// 0.87 makes the end-to-end accuracy at the end of Figure 1's phase 2 drop
// by the paper's reported ≈13%.
func EfficientNet() []pipeline.Variant {
	// Throughput targets fall geometrically from ≈990 QPS (B0) to ≈58 QPS
	// (B7); β = 1/(1.15·target) puts saturation 15% above target and α
	// grows with model size.
	names := []string{"efficientnet-b0", "efficientnet-b1", "efficientnet-b2", "efficientnet-b3",
		"efficientnet-b4", "efficientnet-b5", "efficientnet-b6", "efficientnet-b7"}
	accs := []float64{0.870, 0.888, 0.906, 0.924, 0.942, 0.960, 0.978, 1.000}
	qs := []float64{1238, 825, 550, 368, 245, 164, 109, 73}
	out := make([]pipeline.Variant, len(names))
	for i := range names {
		out[i] = v(names[i], accs[i], accs[i]*84.3, 0.0010+0.0004*float64(i), 1/(1.15*qs[i]), 1.0)
	}
	return out
}

// vgg returns the facial-recognition family (6 variants). Accuracy is LFW
// verification accuracy normalized by the best fine-tuned variant.
func vgg() []pipeline.Variant {
	names := []string{"vgg11-face", "vgg13-face", "vgg16-face", "vgg19-face", "vggface-m", "vggface-l"}
	accs := []float64{0.905, 0.928, 0.950, 0.966, 0.984, 1.000}
	qs := []float64{388, 319, 256, 206, 156, 119}
	out := make([]pipeline.Variant, len(names))
	for i := range names {
		out[i] = v(names[i], accs[i], accs[i]*0.974, 0.0012+0.0005*float64(i), 1/(1.15*qs[i]), 1.0)
	}
	return out
}

// resNet returns the image-classification family for the social-media
// pipeline (6 variants). Accuracy is ImageNet top-1 normalized by the widest
// variant.
func resNet() []pipeline.Variant {
	names := []string{"resnet18", "resnet34", "resnet50", "resnet101", "resnet152", "wide-resnet101"}
	accs := []float64{0.885, 0.929, 0.965, 0.981, 0.993, 1.000}
	qs := []float64{650, 481, 350, 231, 169, 131}
	out := make([]pipeline.Variant, len(names))
	for i := range names {
		// Classification emits one captioning request per image that
		// contains recognizable content; better classifiers pass slightly
		// more images downstream.
		mult := 0.92 + 0.016*float64(i)
		out[i] = v(names[i], accs[i], accs[i]*78.8, 0.0010+0.0004*float64(i), 1/(1.15*qs[i]), mult)
	}
	return out
}

// clipViT returns the image-captioning family (7 variants). Accuracy is
// CIDEr-proxy normalized by the largest variant.
func clipViT() []pipeline.Variant {
	names := []string{"clip-rn50", "clip-rn101", "clip-vit-b32", "clip-vit-b16",
		"clip-rn50x4", "clip-vit-l14", "clip-vit-l14-336"}
	accs := []float64{0.872, 0.894, 0.918, 0.944, 0.962, 0.986, 1.000}
	qs := []float64{269, 219, 175, 138, 103, 73, 53}
	out := make([]pipeline.Variant, len(names))
	for i := range names {
		out[i] = v(names[i], accs[i], accs[i]*1.0, 0.0015+0.0006*float64(i), 1/(1.15*qs[i]), 1.0)
	}
	return out
}

// Families returns the built-in variant families keyed by registry name.
// Each call returns fresh slices, so callers may mutate them freely.
func Families() map[string][]pipeline.Variant {
	return map[string][]pipeline.Variant{
		"yolov5":       yolov5(),
		"efficientnet": EfficientNet(),
		"vgg":          vgg(),
		"resnet":       resNet(),
		"clip-vit":     clipViT(),
	}
}

// TrafficChain returns the two-task pipeline of Figure 1 and §1's
// walkthrough: object detection followed by car classification. The branch
// ratio 0.70 is the fraction of detected objects that are cars.
func TrafficChain() *pipeline.Graph {
	return &pipeline.Graph{
		Name: "traffic-chain",
		Tasks: []pipeline.Task{
			{ID: 0, Name: "object-detection", Variants: yolov5(),
				Children: []pipeline.Child{{Task: 1, BranchRatio: 0.70}}},
			{ID: 1, Name: "car-classification", Variants: EfficientNet()},
		},
	}
}

// TrafficTree returns the full traffic-analysis pipeline of Figure 2a:
// object detection fans out to car classification (cars, 70% of detected
// objects) and facial recognition (persons, 30%).
func TrafficTree() *pipeline.Graph {
	return &pipeline.Graph{
		Name: "traffic-analysis",
		Tasks: []pipeline.Task{
			{ID: 0, Name: "object-detection", Variants: yolov5(),
				Children: []pipeline.Child{
					{Task: 1, BranchRatio: 0.70},
					{Task: 2, BranchRatio: 0.30},
				}},
			{ID: 1, Name: "car-classification", Variants: EfficientNet()},
			{ID: 2, Name: "facial-recognition", Variants: vgg()},
		},
	}
}

// SocialMedia returns the social-media pipeline of Figure 2b: image
// classification whose labels are a pipeline output (sink 2) and also feed
// image captioning (sink 1). 90% of classified images proceed to
// captioning.
func SocialMedia() *pipeline.Graph {
	return &pipeline.Graph{
		Name: "social-media",
		Tasks: []pipeline.Task{
			{ID: 0, Name: "image-classification", Variants: resNet(), Output: true,
				Children: []pipeline.Child{{Task: 1, BranchRatio: 0.90}}},
			{ID: 1, Name: "image-captioning", Variants: clipViT()},
		},
	}
}
