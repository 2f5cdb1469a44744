//go:build !race

package loki

import (
	"math"
	"testing"
)

// TestMultiTenantMatchesRecordedRun pins a contended shared-pool run to the
// counts it produced before the serving paths shared one assembly: traffic
// analysis on an Azure-shaped trace that triples over its middle fifth,
// social media on a Twitter-shaped one, 20 servers. Traffic's completed,
// late and dropped counts are left out, as some of its spike-time solves
// stop at the wall-clock limit; the race detector's slowdown cuts more, so
// race builds leave this file out.
func TestMultiTenantMatchesRecordedRun(t *testing.T) {
	var grants [][]int
	ms, err := NewMulti(WithServers(20), WithSeed(11), func(c *config) {
		c.pool.OnGrants = func(_ int, g []int) { grants = append(grants, g) }
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("traffic", TrafficAnalysisPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("social", SocialMediaPipeline()); err != nil {
		t.Fatal(err)
	}
	err = ms.FeedAll(map[string]*Trace{
		"traffic": AzureTrace(11, 24, 10, 350).WithSpike(0.4, 0.2, 3),
		"social":  TwitterTrace(12, 24, 10, 250),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	// The fewest and most servers the joint allocations granted each tenant
	// are pinned with its counts.
	type pin struct {
		arrivals, completed, late, dropped int64
		minGrant, maxGrant                 int
	}
	want := []pin{
		{arrivals: 69563, minGrant: 3, maxGrant: 14},
		{arrivals: 24166, completed: 22387, late: 1561, dropped: 218, minGrant: 2, maxGrant: 8},
	}
	for i := range want {
		r := ms.reportOf(i)
		got := pin{r.Arrivals, r.Completed, r.Late, r.Dropped, math.MaxInt, 0}
		if r.Pipeline == "traffic" {
			got.completed, got.late, got.dropped = 0, 0, 0
		}
		for _, g := range grants {
			got.minGrant, got.maxGrant = min(got.minGrant, g[i]), max(got.maxGrant, g[i])
		}
		if got != want[i] {
			t.Errorf("%s: got %+v, want %+v", r.Pipeline, got, want[i])
		}
	}
}
