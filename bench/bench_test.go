package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// defOf finds a declared metric by name.
func defOf(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestDeclaration holds BENCHMARK.json to the harness: the same workloads and
// metrics, by the same names, inside the contract's limits.
func TestDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in the harness (limit 2 to 8)", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, declared, have []metricDef, limit int) {
		t.Helper()
		if len(declared) != len(have) || len(declared) < 1 || len(declared) > limit {
			t.Fatalf("%d %s metrics declared, %d in the harness (limit %d)", len(declared), kind, len(have), limit)
		}
		for i, d := range declared {
			name(d.Name)
			if d != have[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, d, have[i])
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("%s: bound %g is outside [0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	same("end-to-end", b.EndToEnd, endToEnd, 16)
	same("per-layer", b.PerLayer, perLayer, 128)
	if s := defOf(endToEnd, "setup_s"); s == nil || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// TestWorkloads runs every workload traced at a small fraction of the
// benchmark's length and checks what a pass must deliver at any scale: every declared
// metric as a finite number, no end-to-end metric at zero, the output checks
// (request conservation, plan invariants) passing, and nothing left running.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			seconds := 0.5
			if w.name[:4] == "http" {
				if testing.Short() {
					t.Skip("wall-clock workload")
				}
				// The live engine samples its server count once a second.
				seconds = 1.5
			}
			o, err := runPass(w, runConfig{seed: 11, seconds: seconds, trace: true, outDir: dir, oneSetup: true}, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			// runPass turns leftover goroutines into a violation too.
			for _, v := range o.violations {
				t.Errorf("check failed: %s", v)
			}
			if !o.correct() {
				t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
			}
			for _, d := range endToEnd {
				if v, ok := o.e2e[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (set: %v)", d.Name, v, ok)
				}
			}
			for name, v := range o.layer {
				if defOf(perLayer, name) == nil {
					t.Errorf("%s is reported but not declared", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %v", name, v)
				}
			}
			for name := range o.e2e {
				if defOf(endToEnd, name) == nil {
					t.Errorf("%s is reported but not declared", name)
				}
			}
			if o.layer["tracing.spans"] == 0 {
				t.Errorf("the traced pass recorded no span")
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "goodput_per_s", Better: "higher", Bound: 0.10}
	one := func(v float64) sample { return sample{Median: v, Q1: v, Q3: v, Values: []float64{v}} }
	for _, c := range []struct {
		def  metricDef
		a, b sample
		want string
	}{
		{lower, one(100), one(105), "same"},
		{lower, one(100), one(111), "worse"},
		{lower, one(100), one(89), "better"},
		{higher, one(100), one(89), "worse"},
		{higher, one(100), one(111), "better"},
		{lower, sample{Median: 100, Q1: 90, Q3: 110, Values: []float64{90, 95, 105, 110}}, one(150), "unresolved"},
		{lower, one(0), one(1), "unresolved"},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: got %s, want %s", c.def.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
