package fault

import (
	"math"
	"strings"
	"testing"
	"time"
)

// render joins the events in the comma-separated spec grammar, so the
// round-trip tests can hand Parse its own output.
func render(evs []Event) string {
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

func TestParseRoundTrip(t *testing.T) {
	spec := "crash@30s:class=a100:n=2:recover=20s,outage@60s:class=spot:recover=30s,straggle@10s:class=spot:n=4:factor=0.25"
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s) != 3 {
		t.Fatalf("want 3 events, got %d", len(s))
	}
	e := s[0]
	if e.Kind != Crash || e.At != 30*time.Second || e.Class != "a100" || e.N != 2 || e.RecoverAfter != 20*time.Second {
		t.Fatalf("crash event parsed wrong: %+v", e)
	}
	if s[1].Kind != Outage || s[1].RecoverAfter != 30*time.Second {
		t.Fatalf("outage event parsed wrong: %+v", s[1])
	}
	if s[2].Factor != 0.25 || s[2].N != 4 {
		t.Fatalf("straggler event parsed wrong: %+v", s[2])
	}
	// Round trip: the rendering must re-parse to the same events.
	again, err := Parse(render(s))
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", render(s), err)
	}
	if render(again) != render(s) {
		t.Fatalf("round trip mismatch: %q vs %q", render(again), render(s))
	}
}

func TestParsePlainSeconds(t *testing.T) {
	s, err := Parse("crash@30:n=1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s[0].At != 30*time.Second {
		t.Fatalf("want At=30s, got %v", s[0].At)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"boom@30s",                 // unknown kind
		"crash",                    // missing @time
		"crash@-5s",                // negative time
		"crash@5s:n=0",             // non-positive n
		"straggle@5s:n=2:factor=2", // factor out of range
		"crash@5s:recover=-1s",     // negative recover
		"crash@5s:wat=1",           // unknown key
		"crash@5s:n",               // missing value
		"crash@NaN",                // non-finite time
		"crash@Inf",
		"crash@5s:recover=NaN",        // non-finite recover
		"straggle@5s:n=20:factor=NaN", // non-finite factor
		"crash@1e11:n=1",              // beyond time.Duration's range
		"crash@1e300",
		"crash@5s:recover=1e300s",
		"crash@3000000h",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("  ")
	if err != nil || s != nil {
		t.Fatalf("empty spec: want (nil, nil), got (%v, %v)", s, err)
	}
}

// FuzzParse feeds arbitrary specs to the CLI grammar: Parse never panics,
// every accepted event validates with its factor finite and its times
// non-negative, and the rendering re-parses to events that render
// identically. The seed corpus runs under plain `go test`.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"crash@30s:class=a100:n=2:recover=20s,outage@60s:class=spot:recover=30s,straggle@10s:class=spot:n=4:factor=0.25",
		"crash@0.0000001",
		"straggle@1m30s:n=3:factor=0.00001:recover=0.00001",
		"outage@1e300:n=7",
		"crash@NaN",
		"crash@5s:recover=Inf",
		" , ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		for _, e := range s {
			if err := e.Validate(); err != nil {
				t.Fatalf("Parse(%q) accepted an event that does not validate: %v", spec, err)
			}
			if math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
				t.Fatalf("Parse(%q) accepted the non-finite factor %g: %+v", spec, e.Factor, e)
			}
			if e.At < 0 || e.RecoverAfter < 0 {
				t.Fatalf("Parse(%q) accepted a negative time: %+v", spec, e)
			}
		}
		text := render(s)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", spec, text, err)
		}
		if render(again) != text {
			t.Fatalf("Parse(%q) renders as %q, which re-renders as %q", spec, text, render(again))
		}
	})
}
