package main

import (
	"strings"
	"testing"
)

// TestPickFansOutAndEntryDoesNot pins the two comma-list readers: pick fans
// the last entry out to later pipelines (-peak, -trace), entry does not
// (-share, -tier, -season, -forecaster).
func TestPickFansOutAndEntryDoesNot(t *testing.T) {
	cases := []struct {
		list      string
		i         int
		pick, ent string
	}{
		{"500", 0, "500", "500"},
		{"500", 2, "500", ""},         // -peak fans out; -share does not
		{"0.6, 0.3", 1, "0.3", "0.3"}, // entries are trimmed
		{"0.6,", 1, "def", ""},        // an explicit blank is the default
		{"0.6,,", 3, "0.6", ""},       // past the end: last non-blank entry
		{"", 0, "def", ""},            // flag not given
		{"1, 0", 5, "0", ""},          // fan-out takes the last entry
		{"holtwinters , last", 0, "holtwinters", "holtwinters"},
	}
	for _, c := range cases {
		list := strings.Split(c.list, ",")
		if got := pick(list, c.i, "def"); got != c.pick {
			t.Errorf("pick(%q, %d) = %q, want %q", c.list, c.i, got, c.pick)
		}
		if got := entry(c.list, c.i); got != c.ent {
			t.Errorf("entry(%q, %d) = %q, want %q", c.list, c.i, got, c.ent)
		}
	}
}
