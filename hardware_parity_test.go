package loki_test

import (
	"reflect"
	"strings"
	"testing"

	"loki"
)

// TestHardwareSingleClassParity pins the hardware-class refactor to the
// homogeneous serving path: declaring the pre-refactor fleet explicitly —
// one class named "default" holding all servers at speed 1.0 and zero cost —
// must reproduce the implicit default bit for bit, whole Report (series
// included) compared by DeepEqual and the rendered report compared by bytes.
// Together with TestSinglePipelineParityWithSeedBehavior (which pins the
// default path to the pre-refactor golden numbers) this bounds the refactor:
// single default class ≡ pre-hardware-class system.
func TestHardwareSingleClassParity(t *testing.T) {
	cases := []struct {
		name    string
		pipe    *loki.Pipeline
		tr      *loki.Trace
		servers int
		opts    []loki.Option
	}{
		{
			name: "traffic-azure", pipe: loki.TrafficAnalysisPipeline(),
			tr: loki.AzureTrace(1, 24, 5, 450), servers: 20,
			opts: []loki.Option{loki.WithSeed(3)},
		},
		{
			name: "chain-ramp-pertask", pipe: loki.TrafficChainPipeline(),
			tr: loki.RampTrace(100, 900, 16, 5), servers: 10,
			opts: []loki.Option{loki.WithSeed(7), loki.WithPolicy(loki.PerTaskPolicy)},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			implicit, err := loki.Serve(c.pipe, c.tr,
				append([]loki.Option{loki.WithServers(c.servers)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			explicit, err := loki.Serve(c.pipe, c.tr,
				append([]loki.Option{loki.WithHardware(
					loki.HardwareClass{Name: "default", Count: c.servers, Speed: 1.0},
				)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(implicit, explicit) {
				t.Errorf("explicit default class diverged from the implicit homogeneous pool\nimplicit: %+v\nexplicit: %+v", implicit, explicit)
			}
			if implicit.String() != explicit.String() {
				t.Errorf("rendered reports differ:\n%s\n%s", implicit, explicit)
			}
			if strings.Contains(explicit.String(), "cost=") {
				t.Errorf("zero-cost fleet leaked cost columns into the report: %s", explicit)
			}
		})
	}
}

// A heterogeneous priced fleet flows through the whole public surface: the
// plan spreads over classes and names them, snapshots break occupancy down
// per class, and the report carries cost accounting.
func TestHardwareHeterogeneousSurface(t *testing.T) {
	sys, err := loki.New(loki.TrafficAnalysisPipeline(),
		loki.WithSeed(5),
		loki.WithHardware(
			loki.HardwareClass{Name: "fast", Count: 6, Speed: 2.0, CostPerHour: 3.0},
			loki.HardwareClass{Name: "slow", Count: 12, Speed: 1.0, CostPerHour: 1.0},
		))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Feed(loki.AzureTrace(1, 12, 5, 500)); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if err := sys.Stop(); err != nil {
		t.Fatal(err)
	}
	plan := sys.Plan()
	if plan == nil {
		t.Fatal("no standing plan")
	}
	if len(plan.ServersByClass) != 2 {
		t.Fatalf("plan.ServersByClass = %v, want a 2-class vector", plan.ServersByClass)
	}
	usage := plan.ClassUsage()
	if usage["fast"]+usage["slow"] != plan.ServersUsed {
		t.Fatalf("class usage %v does not add up to %d servers", usage, plan.ServersUsed)
	}
	if plan.CostPerHour <= 0 {
		t.Fatalf("priced fleet plan has no cost rate: %+v", plan)
	}
	if len(snap.ActiveServersByClass) != 2 || len(snap.GrantedServersByClass) != 2 {
		t.Fatalf("snapshot missing per-class occupancy: %+v", snap)
	}
	rep := sys.Report()
	if rep.ServerCostHours <= 0 || rep.CostPerQuery <= 0 {
		t.Fatalf("priced fleet report has no cost accounting: %+v", rep)
	}
	if len(rep.MeanServersByClass) != 2 {
		t.Fatalf("report missing per-class servers: %+v", rep.MeanServersByClass)
	}
	if !strings.Contains(rep.String(), "cost=$") {
		t.Fatalf("priced report does not render cost: %s", rep)
	}
	// Every worker spec must carry a class the engines can place.
	for _, spec := range sys.Routes().Specs {
		if spec.ClassName != "fast" && spec.ClassName != "slow" {
			t.Fatalf("spec with unknown class: %+v", spec)
		}
	}
}

// WithHardware validation surfaces at construction.
func TestHardwareValidation(t *testing.T) {
	bad := [][]loki.HardwareClass{
		{{Name: "", Count: 4, Speed: 1}},
		{{Name: "a", Count: 0, Speed: 1}},
		{{Name: "a", Count: 4, Speed: 0}},
		{{Name: "a", Count: 4, Speed: 1, CostPerHour: -1}},
		{{Name: "a", Count: 4, Speed: 1}, {Name: "a", Count: 2, Speed: 2}},
	}
	for i, classes := range bad {
		if _, err := loki.New(loki.TrafficChainPipeline(), loki.WithHardware(classes...)); err == nil {
			t.Errorf("case %d: invalid fleet %+v accepted", i, classes)
		}
	}
}

// ParseHardware round-trips the CLI fleet syntax.
func TestParseHardware(t *testing.T) {
	classes, err := loki.ParseHardware("a100:4@2.0@3.5, v100:8@1.0, cpu:16@0.25@0.2")
	if err != nil {
		t.Fatal(err)
	}
	want := []loki.HardwareClass{
		{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: 3.5},
		{Name: "v100", Count: 8, Speed: 1.0},
		{Name: "cpu", Count: 16, Speed: 0.25, CostPerHour: 0.2},
	}
	if !reflect.DeepEqual(classes, want) {
		t.Fatalf("ParseHardware = %+v, want %+v", classes, want)
	}
	if classes, err := loki.ParseHardware(""); err != nil || classes != nil {
		t.Fatalf("empty spec: got %v, %v", classes, err)
	}
	for _, bad := range []string{"a100", "a100:x@1", "a100:4", "a100:4@", "a100:4@1@x", "a100:0@1"} {
		if _, err := loki.ParseHardware(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}
