package engine

import (
	"testing"

	"loki/internal/core"
	"loki/internal/fault"
	"loki/internal/metrics"
	"loki/internal/profiles"
)

// newMultiAllocCeiling bounds what building the simulated backend of the
// fleet cell (plan-fleet, BENCH_fleet.json: 24 tenants × 1,000 workers × 3
// classes) may allocate: a fixed number per tenant, none per worker. One
// allocation per worker put it at about 25,500.
const newMultiAllocCeiling = 2000

func TestNewMultiAllocatesPerTenantNotPerWorker(t *testing.T) {
	const servers, tenants = 1000, 24
	classes := []profiles.Class{
		{Name: "fast", Count: servers / 5, Speed: 2.0},
		{Name: "mid", Count: 2 * servers / 5, Speed: 1.0},
		{Name: "slow", Count: servers - servers/5 - 2*servers/5, Speed: 0.5},
	}
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
	cfg := MultiConfig{Servers: servers, Classes: classes, NetLatencySec: 0.002, Seed: 11}
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, TenantConfig{
			Meta:      core.NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches),
			Collector: metrics.NewCollector(30, servers),
			SLOSec:    0.250,
		})
	}
	var m MultiEngine
	got := testing.AllocsPerRun(5, func() {
		var err error
		if m, err = NewMulti(KindSimulated, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewMulti on the fleet cell: %.0f allocations", got)
	if got > newMultiAllocCeiling {
		t.Fatalf("NewMulti allocates %.0f times on the fleet cell, ceiling %d", got, newMultiAllocCeiling)
	}
	if n := len(m.ActiveByClass(tenants - 1)); n != len(classes) {
		t.Fatalf("tenant %d reports %d classes, want %d", tenants-1, n, len(classes))
	}
}

// TestNewMultiRejectsBadConfig feeds both kinds configurations they must
// refuse at construction.
func TestNewMultiRejectsBadConfig(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	col := metrics.NewCollector(5, 10)
	tenant := TenantConfig{Meta: meta, Collector: col, SLOSec: 0.250}
	cases := []struct {
		name string
		cfg  MultiConfig
	}{
		{"no tenants", MultiConfig{Servers: 10}},
		{"no metadata store", MultiConfig{Servers: 10, Tenants: []TenantConfig{{Collector: col}}}},
		{"no collector", MultiConfig{Servers: 10, Tenants: []TenantConfig{{Meta: meta}}}},
		{"zero servers", MultiConfig{Tenants: []TenantConfig{tenant}}},
		{"servers disagree with classes", MultiConfig{
			Servers: 10, Classes: []profiles.Class{{Name: "a", Count: 4, Speed: 1}}, Tenants: []TenantConfig{tenant},
		}},
		{"fault on an unknown class", MultiConfig{
			Servers: 10, Tenants: []TenantConfig{tenant},
			Faults: &fault.Schedule{Events: []fault.Event{{At: 1, Kind: fault.Crash, Class: "nope", N: 1}}},
		}},
	}
	for _, kind := range kinds {
		for _, tc := range cases {
			if _, err := NewMulti(kind, tc.cfg); err == nil {
				t.Errorf("%s accepted %s", kindName(kind), tc.name)
			}
		}
	}
	if _, err := NewMulti(Kind(7), MultiConfig{Servers: 10, Tenants: []TenantConfig{tenant}}); err == nil {
		t.Error("unknown kind accepted")
	}
}
