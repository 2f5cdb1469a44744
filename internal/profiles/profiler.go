package profiles

import (
	"fmt"
	"math/rand"

	"loki/internal/pipeline"
)

// Profile is the measured performance table of one model variant: for every
// allowed batch size, the batch processing latency and the resulting
// steady-state throughput q(i,k,b). The Resource Manager consumes these
// tables, never the underlying analytic model — exactly as the paper's
// Resource Manager consumes the Model Profiler's measurements from the
// Metadata Store.
type Profile struct {
	Batches    []int
	LatencySec []float64 // batch latency at Batches[j]
	QPS        []float64 // throughput at Batches[j]
}

// Latency returns the profiled latency for batch size b.
func (p *Profile) Latency(b int) (float64, bool) {
	for j, pb := range p.Batches {
		if pb == b {
			return p.LatencySec[j], true
		}
	}
	return 0, false
}

// Throughput returns the profiled throughput for batch size b.
func (p *Profile) Throughput(b int) (float64, bool) {
	for j, pb := range p.Batches {
		if pb == b {
			return p.QPS[j], true
		}
	}
	return 0, false
}

// MaxQPS returns the largest profiled throughput and its batch size.
func (p *Profile) MaxQPS() (float64, int) {
	best, bestB := 0.0, 0
	for j, q := range p.QPS {
		if q > best {
			best, bestB = q, p.Batches[j]
		}
	}
	return best, bestB
}

// Profiler is Loki's Model Profiler (§3): during initial setup it measures
// the processing time of every model variant at every allowed batch size.
// The reference speed is 1.0 (the paper's homogeneous GTX 1080 Ti cluster);
// each hardware class's Speed scales it. Jitter adds relative measurement
// noise so simulator validation does not compare a model against itself
// bit-for-bit.
type Profiler struct {
	Jitter float64 // e.g. 0.01 for ±1% multiplicative noise
	Seed   int64
}

// ProfileVariant measures one variant over the given batch sizes at the
// profiler's reference speed.
func (pr *Profiler) ProfileVariant(v *pipeline.Variant, batches []int) Profile {
	return pr.profileVariantAt(v, batches, 1.0)
}

// profileVariantAt measures one variant with latencies divided by
// classSpeed. The jitter stream is re-seeded per variant, so
// every class observes the same relative measurement noise — a slow class is
// exactly a speed-scaled copy of the reference measurement, which is what
// lets a Speed-1.0 class reproduce the homogeneous profiles bit for bit.
func (pr *Profiler) profileVariantAt(v *pipeline.Variant, batches []int, classSpeed float64) Profile {
	rng := rand.New(rand.NewSource(pr.Seed + int64(len(v.Name))*7919))
	p := Profile{
		Batches:    append([]int(nil), batches...),
		LatencySec: make([]float64, len(batches)),
		QPS:        make([]float64, len(batches)),
	}
	for j, b := range batches {
		lat := v.Latency(b) / classSpeed
		if pr.Jitter > 0 {
			lat *= 1 + pr.Jitter*(2*rng.Float64()-1)
		}
		p.LatencySec[j] = lat
		p.QPS[j] = float64(b) / lat
	}
	return p
}

// ProfileGraph measures every variant of every task of the graph, returning
// tables indexed [task][variant].
func (pr *Profiler) ProfileGraph(g *pipeline.Graph, batches []int) [][]Profile {
	out := make([][]Profile, len(g.Tasks))
	for i := range g.Tasks {
		out[i] = make([]Profile, len(g.Tasks[i].Variants))
		for k := range g.Tasks[i].Variants {
			out[i][k] = pr.ProfileVariant(&g.Tasks[i].Variants[k], batches)
		}
	}
	return out
}

// ProfileGraphClasses measures every variant on every hardware class,
// returning tables indexed [class][task][variant]. Each class's table is the
// reference measurement scaled by the class Speed (a Speed of 0 is treated
// as 1.0), so a single class at Speed 1.0 reproduces ProfileGraph exactly.
func (pr *Profiler) ProfileGraphClasses(g *pipeline.Graph, batches []int, classes []Class) [][][]Profile {
	out := make([][][]Profile, len(classes))
	for c, cl := range classes {
		speed := cl.Speed
		if speed == 0 {
			speed = 1.0
		}
		out[c] = make([][]Profile, len(g.Tasks))
		for i := range g.Tasks {
			out[c][i] = make([]Profile, len(g.Tasks[i].Variants))
			for k := range g.Tasks[i].Variants {
				out[c][i][k] = pr.profileVariantAt(&g.Tasks[i].Variants[k], batches, speed)
			}
		}
	}
	return out
}

// String renders the profile as an aligned table (used by cmd/lokiprofile
// to regenerate Figure 3-style tradeoff tables).
func (p *Profile) String() string {
	s := "batch  latency(ms)  throughput(qps)\n"
	for j, b := range p.Batches {
		s += fmt.Sprintf("%5d  %11.2f  %15.1f\n", b, p.LatencySec[j]*1e3, p.QPS[j])
	}
	return s
}
