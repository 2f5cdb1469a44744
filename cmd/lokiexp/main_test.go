package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown -fig name — a typo in a script, say — must fail with the usage
// status and name every valid figure, not print nothing and succeed.
func TestUnknownFigureExitsWithUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "hetro"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown figure wrote to stdout: %q", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"hetro"`) {
		t.Errorf("stderr does not name the bad figure: %q", msg)
	}
	for _, f := range figures {
		if !strings.Contains(msg, f.name) {
			t.Errorf("stderr does not list figure %q: %q", f.name, msg)
		}
	}
}

// A named figure runs alone, under its banner.
func TestNamedFigureRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Figure 3: accuracy-throughput tradeoff") || strings.Contains(out, "Figure 1:") {
		t.Errorf("-fig 3 output:\n%s", out)
	}
}
