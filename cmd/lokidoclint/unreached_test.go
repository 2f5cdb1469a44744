package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fixtureScan is what findUnreached returns for testdata/fixture.
type fixtureScan struct {
	findings        []finding
	exported, lines int
}

// scanFixture scans the fixture module once per test binary: type-checking
// it and the standard library from source is most of this package's test
// time.
var scanFixture = sync.OnceValues(func() (fixtureScan, error) {
	findings, exported, lines, err := findUnreached("testdata/fixture")
	return fixtureScan{findings, exported, lines}, err
})

// The fixture module declares one identifier for each list, a method
// reached only through an interface, and a JSON-tagged field.
func TestUnreachedFixtureFindings(t *testing.T) {
	scan, err := scanFixture()
	if err != nil {
		t.Fatal(err)
	}
	findings, exported := scan.findings, scan.exported
	want := []finding{
		{"never-set", "internal/a.Box.Depth"},
		{"never-set", "internal/a.Box.Seen"},
		{"package-local", "internal/a.Helper"},
		{"unreached", "internal/a.Uncalled"},
	}
	if !reflect.DeepEqual(findings, want) {
		t.Fatalf("findings = %v, want %v", findings, want)
	}
	// Uncalled, Shape, Shape.Area, Box, Box.W, Box.Depth, Box.Seen,
	// Box.Area, Helper, New.
	if exported != 10 {
		t.Fatalf("exported = %d, want 10", exported)
	}
}

// The gate passes on a complete allowlist, and fails on a finding the
// allowlist lacks and on an entry it no longer finds.
func TestUnreachedGateAllowlist(t *testing.T) {
	scan, err := scanFixture()
	if err != nil {
		t.Fatal(err)
	}
	complete := []string{
		"unreached internal/a.Uncalled only a test calls it",
		"never-set internal/a.Box.Depth read as zero",
		"never-set internal/a.Box.Seen set by encoding/json",
		"package-local internal/a.Helper kept exported",
	}
	for _, tc := range []struct {
		name    string
		allow   []string
		ok      bool
		wantOut string
	}{
		{"complete", complete, true, ""},
		{"new unreached identifier", complete[1:], false, "! internal/a.Uncalled"},
		{"stale entry", append(complete, "unreached internal/a.Gone deleted"), false, "stale allowlist entry: unreached internal/a.Gone"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allow := filepath.Join(t.TempDir(), "unreached.txt")
			if err := os.WriteFile(allow, []byte(strings.Join(tc.allow, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			entries, err := readAllowlist(allow)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			ok := checkAllowlist(scan.findings, scan.exported, scan.lines, entries, allow, &out)
			if ok != tc.ok || !strings.Contains(out.String(), tc.wantOut) {
				t.Fatalf("ok = %v, want %v; output:\n%s", ok, tc.ok, out.String())
			}
		})
	}
}

// An allowlist entry without a reason is rejected.
func TestUnreachedAllowlistNeedsReason(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "unreached.txt")
	if err := os.WriteFile(allow, []byte("unreached internal/a.Uncalled\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(allow); err == nil {
		t.Fatal("entry without a reason accepted")
	}
}
