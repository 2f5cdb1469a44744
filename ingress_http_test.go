package loki_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loki"
)

// Admission control on the simulated engine: virtual time stands still
// between Submits, so once the granted burst is consumed every further
// Submit must shed with ErrOverloaded and a positive Retry-After hint.
func TestAdmissionShedsOnSimulatedSubmit(t *testing.T) {
	sys, err := loki.New(loki.TrafficChainPipeline(),
		loki.WithServers(8), loki.WithSeed(1), loki.WithAdmission(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	admitted, shed := 0, 0
	var firstShed error
	for i := 0; i < 100000 && shed == 0; i++ {
		if err := sys.Submit(ctx); err != nil {
			if !errors.Is(err, loki.ErrOverloaded) {
				t.Fatalf("Submit failed with a non-admission error: %v", err)
			}
			firstShed = err
			shed++
			continue
		}
		admitted++
	}
	if shed == 0 {
		t.Fatal("100k submits at one virtual instant never shed")
	}
	if admitted == 0 {
		t.Fatal("the granted burst admitted nothing before shedding")
	}
	if d, ok := loki.RetryAfter(firstShed); !ok || d <= 0 {
		t.Fatalf("RetryAfter(%v) = (%v, %v), want a positive hint", firstShed, d, ok)
	}
	snap := sys.Snapshot()
	if snap.Shed == 0 || snap.Arrivals != int64(admitted) {
		t.Fatalf("snapshot shed=%d arrivals=%d, want shed>0 and arrivals=%d", snap.Shed, snap.Arrivals, admitted)
	}
	if snap.GrantedRateQPS <= 0 {
		t.Fatalf("GrantedRateQPS = %g, want the granted rate after the first publication", snap.GrantedRateQPS)
	}
	if err := sys.Stop(); err != nil {
		t.Fatal(err)
	}
	if r := sys.Report(); r.Shed != snap.Shed || r.Admitted != snap.Arrivals {
		t.Fatalf("report admitted=%d shed=%d, want %d/%d", r.Admitted, r.Shed, snap.Arrivals, snap.Shed)
	}
}

// The granted-rate derivation is exposed with or without admission control:
// after serving real demand the standing routes must carry a positive
// frontend rate at least as large as the demand they were planned for.
func TestGrantedRateFollowsPlan(t *testing.T) {
	sys, err := loki.New(loki.TrafficChainPipeline(),
		loki.WithServers(12), loki.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Feed(loki.RampTrace(200, 200, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Stop(); err != nil {
		t.Fatal(err)
	}
	if qps := sys.GrantedRate(); qps < 200 {
		t.Fatalf("GrantedRate = %g, want ≥ the 200 qps the plan was sized for", qps)
	}
	// Without WithAdmission nothing is shed and the admission gauges are
	// inert.
	snap := sys.Snapshot()
	if snap.Shed != 0 || snap.GrantedRateQPS != 0 {
		t.Fatalf("admission-free system reports admission state: %+v", snap)
	}
}

// End-to-end over real sockets: two tenants share one pool behind the HTTP
// front door; one is driven far past its grant and must see 429s with
// sensible Retry-After hints, while the other tenant's trickle is admitted
// untouched and meets its SLO.
func TestIngressHTTPTwoTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run (~2s wall)")
	}
	ms, err := loki.NewMulti(loki.WithServers(16), loki.WithSeed(7),
		loki.WithEngine(loki.Wallclock), loki.WithTimeScale(0.25),
		loki.WithAdmission(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("hot", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("cold", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ms)
	defer srv.Close()
	client := srv.Client()

	if resp, err := client.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}

	post := func(pipeline string) *http.Response {
		resp, err := client.Post(srv.URL+"/v1/"+pipeline+"/infer", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Errorf("infer(%s): %v", pipeline, err)
			return nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// The hot tenant: 3000 requests as fast as 60 connections can push them
	// — far past any keep-warm grant. The cold tenant: a 30ms-paced trickle
	// riding alongside.
	var hotOK, hotShed, hotOther, badRetry atomic.Int64
	var coldOK, coldBad atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 60; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp := post("hot")
				if resp == nil {
					continue
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					hotOK.Add(1)
				case http.StatusTooManyRequests:
					hotShed.Add(1)
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 10 {
						badRetry.Add(1)
					}
				default:
					hotOther.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if resp := post("cold"); resp != nil {
				if resp.StatusCode == http.StatusAccepted {
					coldOK.Add(1)
				} else {
					coldBad.Add(1)
				}
			}
			time.Sleep(30 * time.Millisecond)
		}
	}()
	wg.Wait()

	if hotShed.Load() == 0 {
		t.Fatalf("hot tenant was never shed (ok=%d other=%d)", hotOK.Load(), hotOther.Load())
	}
	if hotOK.Load() == 0 {
		t.Fatal("hot tenant's granted burst admitted nothing")
	}
	if hotOther.Load() != 0 {
		t.Fatalf("hot tenant saw %d unexpected statuses", hotOther.Load())
	}
	if badRetry.Load() != 0 {
		t.Fatalf("%d shed responses carried a nonsensical Retry-After", badRetry.Load())
	}
	if coldBad.Load() != 0 {
		t.Fatalf("cold tenant refused %d of %d requests while hot overloaded",
			coldBad.Load(), coldBad.Load()+coldOK.Load())
	}

	// The snapshot endpoint reflects the shed traffic.
	resp, err := client.Get(srv.URL + "/v1/hot/snapshot")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("snapshot = %v, %v", resp, err)
	}
	var snap loki.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Shed != hotShed.Load() {
		t.Fatalf("snapshot.Shed = %d, want the %d observed 429s", snap.Shed, hotShed.Load())
	}
	if snap.GrantedRateQPS <= 0 {
		t.Fatalf("snapshot.GrantedRateQPS = %g, want positive", snap.GrantedRateQPS)
	}

	// Drain: new work is refused, health flips, observation stays up.
	ms.Drain()
	if resp := post("hot"); resp != nil && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining infer = %d, want 503", resp.StatusCode)
	}
	if resp, err := client.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != 503 {
		t.Fatalf("draining healthz = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}

	// The cold tenant's admitted population must be unharmed: everything it
	// offered was admitted, nothing shed, and (race-detector slowdown aside)
	// its SLO attainment stays high.
	cold, err := ms.Report("cold")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Shed != 0 || cold.Arrivals != coldOK.Load() {
		t.Fatalf("cold report shed=%d arrivals=%d, want 0/%d", cold.Shed, cold.Arrivals, coldOK.Load())
	}
	if !raceEnabled && cold.SLOViolationRatio > 0.25 {
		t.Fatalf("cold tenant harmed by hot overload: violations %.3f", cold.SLOViolationRatio)
	}
	hot, err := ms.Report("hot")
	if err != nil {
		t.Fatal(err)
	}
	if hot.Shed != hotShed.Load() || hot.Admitted != hotOK.Load() {
		t.Fatalf("hot report admitted=%d shed=%d, want %d/%d",
			hot.Admitted, hot.Shed, hotOK.Load(), hotShed.Load())
	}
}

// The front door's pipeline table is fixed when the first HTTP request
// mounts it, so that request closes registration: a pipeline added later
// could never be reached, and AddPipeline must refuse it rather than accept
// a pipeline that answers 404 for the life of the server.
func TestHTTPClosesRegistration(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(8), loki.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Stop()
	if err := ms.AddPipeline("a", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	ms.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", rec.Code)
	}
	err = ms.AddPipeline("b", loki.TrafficChainPipeline())
	if err == nil || !strings.Contains(err.Error(), "registration is closed") {
		t.Fatalf("AddPipeline after the first HTTP request = %v, want the registration-closed error", err)
	}
}

// WithHeadroom sets the admission target with the planning headroom: the
// front door admits at 1/(1+headroom) of the granted rate, the demand the
// plan was sized for.
func TestAdmissionTargetFollowsHeadroom(t *testing.T) {
	sys, err := loki.New(loki.TrafficChainPipeline(), loki.WithServers(8), loki.WithSeed(1),
		loki.WithAdmission(true), loki.WithHeadroom(0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if err := sys.Feed(loki.RampTrace(100, 100, 3, 2)); err != nil {
		t.Fatal(err)
	}
	granted := sys.GrantedRate()
	want := granted / 1.5
	if got := sys.Snapshot().GrantedRateQPS; granted <= 0 || math.Abs(got-want) > 1e-9*want {
		t.Fatalf("admission target %g with granted rate %g, want %g (granted/(1+0.5))", got, granted, want)
	}
}
