package profiles

import (
	"math"
	"reflect"
	"testing"
)

// A single speed-1.0 class reproduces the homogeneous profiler bit for bit —
// the profile-layer half of the hardware-class parity contract.
func TestProfileGraphClassesSpeedOneParity(t *testing.T) {
	g := TrafficTree()
	pr := &Profiler{}
	ref := pr.ProfileGraph(g, Batches)
	got := pr.ProfileGraphClasses(g, Batches, DefaultClasses(20))
	if len(got) != 1 {
		t.Fatalf("%d class tables, want 1", len(got))
	}
	if !reflect.DeepEqual(ref, got[0]) {
		t.Fatal("speed-1.0 class diverged from the homogeneous profiler")
	}
}

// Per-class tables are the reference measurement scaled by the class speed:
// latency divides, throughput multiplies.
func TestProfileGraphClassesSpeedScaling(t *testing.T) {
	g := TrafficChain()
	classes := []Class{
		{Name: "fast", Count: 2, Speed: 2.0},
		{Name: "ref", Count: 2, Speed: 1.0},
	}
	tabs := (&Profiler{}).ProfileGraphClasses(g, Batches, classes)
	for i := range g.Tasks {
		for k := range g.Tasks[i].Variants {
			for j := range Batches {
				fast, ref := tabs[0][i][k].LatencySec[j], tabs[1][i][k].LatencySec[j]
				if diff := fast*2 - ref; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("task %d variant %d batch %d: fast latency %g not half of %g", i, k, Batches[j], fast, ref)
				}
			}
		}
	}
}

// A class's latency curve is the analytic curve divided by the class
// speed; a zero Speed counts as 1.0.
func TestClassLatency(t *testing.T) {
	g := TrafficChain()
	v := g.Tasks[0].Variants[0]
	tabs := (&Profiler{}).ProfileGraphClasses(g, []int{8}, []Class{{Name: "fast", Speed: 2.0}, {Name: "z"}})
	if got, want := tabs[0][0][0].LatencySec[0], v.Latency(8)/2; got != want {
		t.Fatalf("fast class latency = %g, want %g", got, want)
	}
	if got, want := tabs[1][0][0].LatencySec[0], v.Latency(8); got != want {
		t.Fatalf("zero-speed class latency = %g, want the reference %g", got, want)
	}
}

// ParseClasses handles the CLI fleet syntax and validation.
func TestParseClasses(t *testing.T) {
	got, err := ParseClasses("a:2@1.5@0.8,b:4@0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{
		{Name: "a", Count: 2, Speed: 1.5, CostPerHour: 0.8},
		{Name: "b", Count: 4, Speed: 0.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseClasses = %+v, want %+v", got, want)
	}
	if cs, err := ParseClasses("  "); err != nil || cs != nil {
		t.Fatalf("blank spec: %v, %v", cs, err)
	}
	for _, bad := range []string{"a", "a:2", "a:2@0", "a:0@1", "a:2@1,a:3@1", ":2@1",
		"a:4@NaN,b:8@1.0", "a:4@Inf,b:8@1.0", "a:4@2.0@Inf", "a:4@2.0@NaN"} {
		if _, err := ParseClasses(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

// FuzzParseClasses feeds arbitrary fleet specs to the CLI grammar:
// ParseClasses never panics, and an accepted fleet validates with every
// speed and cost finite. The seed corpus runs under plain `go test`.
func FuzzParseClasses(f *testing.F) {
	for _, spec := range []string{
		"a100:4@2.0,v100:8@1.0,cpu:16@0.25",
		"a100:4@2.0@3.5",
		"a100:4@NaN,v100:8@1.0",
		"a100:4@Inf,v100:8@1.0",
		"a100:4@2.0@Inf",
		"  ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		classes, err := ParseClasses(spec)
		if err != nil || classes == nil {
			return
		}
		if err := ValidateClasses(classes); err != nil {
			t.Fatalf("ParseClasses(%q) accepted a fleet that does not validate: %v", spec, err)
		}
		for _, c := range classes {
			for _, x := range []float64{c.Speed, c.CostPerHour} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("ParseClasses(%q) accepted the non-finite number %g: %+v", spec, x, c)
				}
			}
		}
	})
}
