package ingress

import (
	"errors"
	"math"
	"testing"

	"loki/internal/core"
)

func TestTokenBucketRefillMath(t *testing.T) {
	b := NewTokenBucket(10, 5, 0) // 10 tokens/s, depth 5, starts full
	for i := 0; i < 5; i++ {
		if ok, _ := b.Allow(0); !ok {
			t.Fatalf("token %d of the initial burst refused", i)
		}
	}
	ok, wait := b.Allow(0)
	if ok {
		t.Fatal("6th token admitted from a depth-5 bucket")
	}
	if math.Abs(wait-0.1) > 1e-9 {
		t.Fatalf("empty bucket at 10 qps should refill a token in 0.1s, got %g", wait)
	}
	// 0.35s refills 3.5 tokens: three admits, then a refusal 0.05s short.
	if got := b.Tokens(0.35); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("tokens at t=0.35 = %g, want 3.5", got)
	}
	for i := 0; i < 3; i++ {
		if ok, _ := b.Allow(0.35); !ok {
			t.Fatalf("refill admit %d refused", i)
		}
	}
	ok, wait = b.Allow(0.35)
	if ok {
		t.Fatal("admitted with only 0.5 tokens")
	}
	if math.Abs(wait-0.05) > 1e-9 {
		t.Fatalf("wait = %g, want 0.05", wait)
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	b := NewTokenBucket(100, 8, 0)
	// A long idle period must not accumulate beyond the depth.
	if got := b.Tokens(60); got != 8 {
		t.Fatalf("tokens after a minute idle = %g, want the burst cap 8", got)
	}
	n := 0
	for {
		ok, _ := b.Allow(60)
		if !ok {
			break
		}
		n++
		if n > 9 {
			break
		}
	}
	if n != 8 {
		t.Fatalf("burst admitted %d, want exactly the depth 8", n)
	}
}

func TestTokenBucketSetRateRefillsAtOldRateFirst(t *testing.T) {
	b := NewTokenBucket(10, 10, 0)
	for i := 0; i < 10; i++ {
		b.Allow(0)
	}
	// One second at the old 10 qps refills 10 tokens; the new depth 4 clips
	// them, and the new rate governs from here on.
	b.SetRate(2, 4, 1)
	if got := b.Tokens(1); got != 4 {
		t.Fatalf("tokens after shrink = %g, want clipped to 4", got)
	}
	for i := 0; i < 4; i++ {
		b.Allow(1)
	}
	if ok, wait := b.Allow(1); ok || math.Abs(wait-0.5) > 1e-9 {
		t.Fatalf("after shrink want refusal with 0.5s wait at 2 qps, got ok=%v wait=%g", ok, wait)
	}
}

func TestTokenBucketZeroRate(t *testing.T) {
	b := NewTokenBucket(0, 0, 0)
	if ok, wait := b.Allow(5); ok || !math.IsInf(wait, 1) {
		t.Fatalf("zero-rate bucket: ok=%v wait=%g, want refusal with infinite wait", ok, wait)
	}
}

func TestAdmissionRateShed(t *testing.T) {
	a := NewAdmission(Config{SLOSec: 0.25})
	a.SetRate(0, 100) // burst 100 (1s of rate)
	admitted, shed := 0, 0
	var retry float64
	for i := 0; i < 250; i++ {
		// 250 arrivals inside one second against a 100 qps grant with a
		// 100-token burst: ~200 admitted (burst + refill), rest shed.
		now := float64(i) / 250
		ok, ra := a.Admit(now, 0)
		if ok {
			admitted++
		} else {
			shed++
			retry = ra
		}
	}
	if shed == 0 {
		t.Fatal("sustained 250 qps against a 100 qps grant shed nothing")
	}
	if admitted < 150 || admitted > 220 {
		t.Fatalf("admitted %d of 250, want burst+refill ≈ 200", admitted)
	}
	if retry <= 0 || retry > 1 {
		t.Fatalf("rate-shed Retry-After %g, want a positive sub-second refill hint", retry)
	}
	gotA, gotS := a.Totals()
	if gotA != int64(admitted) || gotS != int64(shed) {
		t.Fatalf("Totals = (%d, %d), want (%d, %d)", gotA, gotS, admitted, shed)
	}
}

func TestAdmissionSaturationShed(t *testing.T) {
	a := NewAdmission(Config{SLOSec: 0.25})
	a.SetRate(0, 100) // maxInFlight = ceil(100 × 0.25) = 25
	ok, retry := a.Admit(0.5, 25)
	if ok {
		t.Fatal("admitted at the saturation limit")
	}
	if math.Abs(retry-0.125) > 1e-9 {
		t.Fatalf("saturation Retry-After %g, want SLO/2 = 0.125", retry)
	}
	// Under the limit, tokens still govern.
	if ok, _ := a.Admit(0.5, 24); !ok {
		t.Fatal("refused below the saturation limit with a full bucket")
	}
}

func TestAdmissionShedsEverythingBeforeFirstGrant(t *testing.T) {
	a := NewAdmission(Config{SLOSec: 0.25})
	ok, retry := a.Admit(0, 0)
	if ok {
		t.Fatal("admitted before any capacity was granted")
	}
	if retry <= 0 {
		t.Fatalf("Retry-After %g, want positive", retry)
	}
}

func TestAdmissionRatesWindow(t *testing.T) {
	a := NewAdmission(Config{SLOSec: 0.25})
	a.SetRate(0, 10)
	// Second 10: 10 admits (bucket holds 10) then 15 sheds.
	for i := 0; i < 25; i++ {
		a.Admit(10.0, 0)
	}
	adm, shed := a.Rates(10.0)
	if math.Abs(adm-10.0/rateWindowSec) > 1e-9 {
		t.Fatalf("admitted rate %g, want %g", adm, 10.0/rateWindowSec)
	}
	if math.Abs(shed-15.0/rateWindowSec) > 1e-9 {
		t.Fatalf("shed rate %g, want %g", shed, 15.0/rateWindowSec)
	}
	// The window forgets: far in the future both gauges read zero.
	adm, shed = a.Rates(100)
	if adm != 0 || shed != 0 {
		t.Fatalf("rates long after traffic = (%g, %g), want zeros", adm, shed)
	}
}

func TestShedErrorUnwrapsToErrShed(t *testing.T) {
	err := error(&ShedError{RetryAfterSec: 0.2})
	if !errors.Is(err, ErrShed) {
		t.Fatal("ShedError does not unwrap to ErrShed")
	}
	var se *ShedError
	if !errors.As(err, &se) || se.RetryAfterSec != 0.2 {
		t.Fatal("errors.As lost the Retry-After hint")
	}
}

func TestFrontendRateSumsRootTaskSpecQPS(t *testing.T) {
	r := &core.Routes{Specs: []core.WorkerSpec{
		{ID: 0, Task: 0, QPS: 120},
		{ID: 1, Task: 0, QPS: 80}, // second root replica, slower class
		{ID: 2, Task: 1, QPS: 500},
		{ID: 3, Task: 2, QPS: 300},
	}}
	if got := FrontendRate(r); got != 200 {
		t.Fatalf("FrontendRate = %g, want 200 (root-task replicas only)", got)
	}
	if got := FrontendRate(nil); got != 0 {
		t.Fatalf("FrontendRate(nil) = %g, want 0", got)
	}
}
