package fault

import (
	"math"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "crash@30s:class=a100:n=2:recover=20s,outage@60s:class=spot:recover=30s,straggle@10s:class=spot:n=4:factor=0.25"
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Events) != 3 {
		t.Fatalf("want 3 events, got %d", len(s.Events))
	}
	e := s.Events[0]
	if e.Kind != Crash || e.At != 30 || e.Class != "a100" || e.N != 2 || e.RecoverAfter != 20 {
		t.Fatalf("crash event parsed wrong: %+v", e)
	}
	if s.Events[1].Kind != Outage || s.Events[1].RecoverAfter != 30 {
		t.Fatalf("outage event parsed wrong: %+v", s.Events[1])
	}
	if s.Events[2].Factor != 0.25 || s.Events[2].N != 4 {
		t.Fatalf("straggler event parsed wrong: %+v", s.Events[2])
	}
	// Round trip: String must re-parse to the same schedule.
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", s.String(), err)
	}
	if again.String() != s.String() {
		t.Fatalf("round trip mismatch: %q vs %q", again.String(), s.String())
	}
}

func TestParsePlainSeconds(t *testing.T) {
	s, err := Parse("crash@30:n=1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Events[0].At != 30 {
		t.Fatalf("want At=30, got %g", s.Events[0].At)
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

// mockTarget records the calls Compile's actions make.
type mockTarget struct {
	calls []string
}

func (m *mockTarget) Fail(class, n int) []int {
	m.calls = append(m.calls, "fail")
	if n <= 0 {
		return []int{7, 8, 9}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = 10 + i
	}
	return out
}
func (m *mockTarget) Recover(phys []int) { m.calls = append(m.calls, "recover") }
func (m *mockTarget) Slow(class, n int, factor float64) []int {
	m.calls = append(m.calls, "slow")
	return []int{3}
}
func (m *mockTarget) Restore(phys []int) { m.calls = append(m.calls, "restore") }

func TestCompileOrdersAndPairsRecovery(t *testing.T) {
	s := &Schedule{Events: []Event{
		{At: 40, Kind: Outage, Class: "spot", RecoverAfter: 20},
		{At: 10, Kind: Straggler, Class: "spot", N: 1, Factor: 0.5, RecoverAfter: 5},
	}}
	idx := func(name string) (int, bool) { return 1, name == "spot" }
	timeline, err := Compile(s, idx)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// straggle@10, restore@15, outage@40, recover@60 — sorted by time.
	wantAt := []float64{10, 15, 40, 60}
	if len(timeline) != len(wantAt) {
		t.Fatalf("want %d actions, got %d", len(wantAt), len(timeline))
	}
	tgt := &mockTarget{}
	for i, tc := range timeline {
		if tc.At != wantAt[i] {
			t.Errorf("action %d at %g, want %g", i, tc.At, wantAt[i])
		}
		desc := tc.Fire(tgt)
		if desc == "" {
			t.Errorf("action %d: empty description", i)
		}
	}
	want := []string{"slow", "restore", "fail", "recover"}
	if strings.Join(tgt.calls, ",") != strings.Join(want, ",") {
		t.Fatalf("calls %v, want %v", tgt.calls, want)
	}
}

func TestCompileUnknownClass(t *testing.T) {
	s := &Schedule{Events: []Event{{At: 1, Kind: Crash, Class: "nope", N: 1}}}
	if _, err := Compile(s, func(string) (int, bool) { return 0, false }); err == nil {
		t.Fatal("want unknown-class error")
	}
}

func TestCompileNil(t *testing.T) {
	if tl, err := Compile(nil, nil); err != nil || tl != nil {
		t.Fatalf("nil schedule: want (nil, nil), got (%v, %v)", tl, err)
	}
}

// FuzzParse feeds arbitrary specs to the CLI grammar: Parse never panics, an
// accepted schedule validates with every number finite, and its rendering
// re-parses to a schedule that renders identically. The seed corpus runs
// under plain `go test`.
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
		if err != nil || s == nil {
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a schedule that does not validate: %v", spec, err)
		}
		for _, e := range s.Events {
			for _, x := range []float64{e.At, e.Factor, e.RecoverAfter} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("Parse(%q) accepted the non-finite number %g: %+v", spec, x, e)
				}
			}
		}
		text := s.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", spec, text, err)
		}
		if again.String() != text {
			t.Fatalf("Parse(%q) renders as %q, which re-renders as %q", spec, text, again.String())
		}
	})
}
