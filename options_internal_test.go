package loki

import (
	"testing"
	"time"
)

// TestZeroSolveTimeLimitKeepsDefault: WithSolveTimeLimit(0) means the
// default, as every other option's zero does, not the solver's own bound.
func TestZeroSolveTimeLimitKeepsDefault(t *testing.T) {
	limit := func(opts ...Option) time.Duration {
		t.Helper()
		s, err := buildConfig(opts).newStack()
		if err != nil {
			t.Fatal(err)
		}
		return s.SolveTimeLimit
	}
	if zero, omitted := limit(WithSolveTimeLimit(0)), limit(); zero != omitted {
		t.Fatalf("WithSolveTimeLimit(0) gives a %v solve limit, leaving it out %v", zero, omitted)
	}
}
