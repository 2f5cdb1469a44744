package core

import (
	"reflect"
	"testing"
	"time"

	"loki/internal/profiles"
)

func TestSplitPoolTieredUniformDelegates(t *testing.T) {
	// Same tiers + floors that fit: bit-identical to splitPool, the
	// golden-compatibility contract.
	wants := []int{8, 7}
	floors := []int{5, 5}
	got := splitPoolTiered(10, wants, floors, []int{0, 0})
	want := splitPool(10, wants, floors)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("uniform tiers: got %v, want splitPool's %v", got, want)
	}
}

func TestSplitPoolTieredStrictPrecedence(t *testing.T) {
	cases := []struct {
		name   string
		pool   int
		wants  []int
		floors []int
		tiers  []int
		want   []int
	}{
		{
			// The high tier's full want is served before the low tier,
			// regardless of the low tier's floor.
			name: "high tier first", pool: 12,
			wants: []int{10, 10}, floors: []int{6, 6}, tiers: []int{1, 0},
			want: []int{10, 2},
		},
		{
			// Registration order does not matter, tier does.
			name: "order independent", pool: 12,
			wants: []int{10, 10}, floors: []int{6, 6}, tiers: []int{0, 1},
			want: []int{2, 10},
		},
		{
			// Nothing left for the low tier at all.
			name: "low tier starved", pool: 8,
			wants: []int{10, 10}, floors: []int{6, 6}, tiers: []int{1, 0},
			want: []int{8, 0},
		},
		{
			// Peers within one level share by the splitPool arithmetic.
			name: "peers share a level", pool: 14,
			wants: []int{10, 6, 6}, floors: []int{6, 4, 4}, tiers: []int{1, 0, 0},
			want: []int{10, 2, 2},
		},
		{
			// Three levels drain top-down.
			name: "three levels", pool: 15,
			wants: []int{6, 6, 6}, floors: []int{4, 4, 4}, tiers: []int{2, 1, 0},
			want: []int{6, 6, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := splitPoolTiered(tc.pool, tc.wants, tc.floors, tc.tiers)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("splitPoolTiered(%d, %v, %v, %v) = %v, want %v",
					tc.pool, tc.wants, tc.floors, tc.tiers, got, tc.want)
			}
			if s := sumInts(got); s > tc.pool {
				t.Fatalf("grants %v exceed the pool %d", got, tc.pool)
			}
		})
	}
}

func TestPackTieredContiguousBlocks(t *testing.T) {
	// Two classes (12 + 6 live), distinct tiers, both tenants hungry: the
	// high tier takes its whole want from the largest class, the low tier
	// gets whatever is left packed from where the high tier stopped — one
	// block plus at most one boundary fragment, never slivers everywhere.
	counts := []int{12, 6}
	wants := [][]int{{8, 4}, {8, 4}}
	floors := [][]int{{6, 4}, {6, 4}}
	got := packTiered(counts, wants, floors, []int{1, 0})
	want := [][]int{{12, 0}, {0, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packTiered = %v, want %v", got, want)
	}
	for c := range counts {
		used := 0
		for i := range got {
			used += got[i][c]
		}
		if used > counts[c] {
			t.Fatalf("class %d oversubscribed: %v vs %d live", c, got, counts[c])
		}
	}
}

func TestPackTieredLargestClassFirst(t *testing.T) {
	// When the later class is larger, packing starts there: the high tier's
	// block must land on the biggest (most plannable) run of servers.
	counts := []int{4, 10}
	wants := [][]int{{3, 4}, {3, 4}}
	floors := [][]int{{2, 5}, {2, 5}}
	got := packTiered(counts, wants, floors, []int{1, 0})
	if got[0][1] != 7 || got[0][0] != 0 {
		t.Fatalf("high tier should fill the larger class first: got %v", got)
	}
}

func TestDropFragmentPrefersBetterPlan(t *testing.T) {
	// A served plan is final: no retry, the plan comes back unchanged.
	tn := &Tenant{}
	full := &Plan{ServedFraction: 1.0}
	if got := tn.dropFragment(full, 240, []int{1, 6}, 1.04); got != full {
		t.Fatalf("fully-served plan should not be retried")
	}
	// A single-class grant has no fragment to drop.
	sat := &Plan{ServedFraction: 0.5}
	if got := tn.dropFragment(sat, 240, []int{0, 6}, 1.04); got != sat {
		t.Fatalf("single-class grant should not be retried")
	}

	// An under-serving plan on a grant that spans two classes is retried
	// without the smaller one, and the better plan wins. On traffic analysis
	// at 600 qps, the [1 10] solve's steps 2 and 3 are both cut before
	// their first integer point, so it falls through to the idle plan; the
	// [0 10] retry serves everything.
	classes := []profiles.Class{{Name: "fast", Count: 8, Speed: 1.5}, {Name: "slow", Count: 12, Speed: 1.0}}
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
	opts := AllocatorOptions{NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30}
	if raceEnabled {
		// The detector carries the retry's step-2 search past the 2 s
		// default ceiling, which would let the clock decide its plan.
		opts.SolveTimeLimit = time.Minute
	}
	alloc, err := NewAllocator(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	tn = &Tenant{Name: "fragment", Meta: meta, Alloc: alloc}
	capped, err := tn.solve(600, []int{1, 10}, 1.04)
	if err != nil {
		t.Fatal(err)
	}
	if capped.ServedFraction != 0 || !capped.SolveStats.Truncated {
		t.Fatalf("the [1 10] plan serves %.3f (truncated %v), want the idle plan of a cut search: the case no longer needs the retry",
			capped.ServedFraction, capped.SolveStats.Truncated)
	}
	got := tn.dropFragment(capped, 600, []int{1, 10}, 1.04)
	if tn.allocates != 2 {
		t.Fatalf("%d solves, want the capped one and the retry", tn.allocates)
	}
	// The retry's plan is cached: solving at [0 10] again returns it.
	retry, err := tn.solve(600, []int{0, 10}, 1.04)
	if err != nil {
		t.Fatal(err)
	}
	if got != retry || got.ServedFraction < 0.999 {
		t.Fatalf("dropFragment returned a plan serving %.3f, want the [0 10] retry's, serving %.3f", got.ServedFraction, retry.ServedFraction)
	}
}
