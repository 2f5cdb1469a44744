package ingress

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"loki/internal/trace"
)

// fakeBackend builds a Server over canned hooks: submitErr is returned by
// every Submit, and submits counts the calls that reached the backend.
func fakeBackend(submitErr error, submits *atomic.Int64, draining *atomic.Bool) *Server {
	return NewServer(ServerConfig{
		Pipelines: []string{"vision", "speech"},
		Submit: func(ctx context.Context, pipeline string) error {
			if submits != nil {
				submits.Add(1)
			}
			return submitErr
		},
		Snapshot: func(pipeline string) (any, error) {
			return map[string]any{"pipeline": pipeline, "arrivals": 7}, nil
		},
		Draining: func() bool { return draining != nil && draining.Load() },
	})
}

func TestInferAcceptsAndAcks(t *testing.T) {
	var submits atomic.Int64
	srv := httptest.NewServer(fakeBackend(nil, &submits, nil))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/vision/infer", "application/json", strings.NewReader(`{"id":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if submits.Load() != 1 {
		t.Fatalf("backend saw %d submits, want 1", submits.Load())
	}
}

func TestInferEmptyBodyAllowed(t *testing.T) {
	srv := httptest.NewServer(fakeBackend(nil, nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/vision/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
}

func TestInferRejectsMalformedJSON(t *testing.T) {
	var submits atomic.Int64
	srv := httptest.NewServer(fakeBackend(nil, &submits, nil))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/vision/infer", "application/json", strings.NewReader(`{broken`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if submits.Load() != 0 {
		t.Fatal("malformed request reached the backend")
	}
}

func TestInferBodyLimit(t *testing.T) {
	exact := `{"pad":"` + strings.Repeat("x", maxBodyBytes-len(`{"pad":""}`)) + `"}`
	for _, c := range []struct {
		name string
		body string
		want int
	}{
		{"one byte over", `"` + strings.Repeat("x", maxBodyBytes-1) + `"`, 413},
		{"valid JSON at the limit", exact, 202},
		// Valid JSON within the first limit bytes; the garbage past them
		// must not go unread.
		{"padded garbage", "{}" + strings.Repeat(" ", maxBodyBytes) + "garbage", 413},
	} {
		t.Run(c.name, func(t *testing.T) {
			var submits atomic.Int64
			srv := httptest.NewServer(fakeBackend(nil, &submits, nil))
			defer srv.Close()
			resp, err := srv.Client().Post(srv.URL+"/v1/vision/infer", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("%d-byte body: status = %d, want %d", len(c.body), resp.StatusCode, c.want)
			}
			if c.want != 202 {
				var eb errorBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
					t.Fatalf("413 body is not an errorBody: %v %+v", err, eb)
				}
				if submits.Load() != 0 {
					t.Fatal("oversized request reached the backend")
				}
			}
		})
	}
}

func TestInferUnknownPipeline404(t *testing.T) {
	srv := httptest.NewServer(fakeBackend(nil, nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/nope/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestInferShedTranslatesTo429WithRetryAfter(t *testing.T) {
	srv := httptest.NewServer(fakeBackend(&ShedError{RetryAfterSec: 0.4}, nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/vision/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// 0.4s rounds UP to the whole-second header — never telling a client to
	// retry before capacity exists.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra != 1 {
		t.Fatalf("Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	var body struct {
		Error         string  `json:"error"`
		RetryAfterSec float64 `json:"retry_after_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "shed" || body.RetryAfterSec != 0.4 {
		t.Fatalf("body = %+v, want shed with the sub-second hint", body)
	}
}

func TestInferBackendErrorTranslatesTo503(t *testing.T) {
	srv := httptest.NewServer(fakeBackend(errors.New("stopped"), nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/vision/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestDrainingSheds503ButServesSnapshots(t *testing.T) {
	var draining atomic.Bool
	srv := httptest.NewServer(fakeBackend(nil, nil, &draining))
	defer srv.Close()
	draining.Store(true)

	resp, err := srv.Client().Post(srv.URL+"/v1/vision/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("draining infer status = %d, want 503", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}

	// Observation endpoints stay up through a drain.
	resp, err = srv.Client().Get(srv.URL + "/v1/speech/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("draining snapshot status = %d, want 200", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap["pipeline"] != "speech" {
		t.Fatalf("snapshot = %v, want the speech pipeline's", snap)
	}
}

func TestHealthzOKWhileServing(t *testing.T) {
	srv := httptest.NewServer(fakeBackend(nil, nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

func TestLoadGenCountsOutcomes(t *testing.T) {
	// A backend that sheds every third request exercises all LoadGen
	// counters at once.
	var n atomic.Int64
	srv := httptest.NewServer(NewServer(ServerConfig{
		Pipelines: []string{"vision"},
		Submit: func(ctx context.Context, pipeline string) error {
			if n.Add(1)%3 == 0 {
				return &ShedError{RetryAfterSec: 0.2}
			}
			return nil
		},
		Snapshot: func(pipeline string) (any, error) { return nil, nil },
	}))
	defer srv.Close()

	g := &LoadGen{BaseURL: srv.URL, Pipeline: "vision", Conns: 8, Client: srv.Client()}
	// 90 arrivals across 0.3s of trace keeps the test fast.
	res, err := g.Run(context.Background(), trace.Ramp(300, 300, 3, 0.1), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Sent != res.Accepted+res.Shed+res.Errors {
		t.Fatalf("counts don't add up: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected transport errors: %+v", res)
	}
	if res.Shed == 0 || res.Accepted == 0 {
		t.Fatalf("want a mix of accepted and shed, got %+v", res)
	}
	if res.RetryAfterMeanSec < 0.5 { // header rounds 0.2 up to 1
		t.Fatalf("RetryAfterMeanSec = %g, want ≈1 from the rounded header", res.RetryAfterMeanSec)
	}
}

func TestLoadGenRetriesSalvageShedRequests(t *testing.T) {
	// A backend that sheds only its first few calls: with a retry budget, the
	// shed requests sleep out the Retry-After hint and land on the recovered
	// server, so nothing counts as Shed and the salvage shows up in RetriedOK.
	var n atomic.Int64
	srv := httptest.NewServer(NewServer(ServerConfig{
		Pipelines: []string{"vision"},
		Submit: func(ctx context.Context, pipeline string) error {
			if n.Add(1) <= 4 {
				return &ShedError{RetryAfterSec: 0.2}
			}
			return nil
		},
		Snapshot: func(pipeline string) (any, error) { return nil, nil },
	}))
	defer srv.Close()

	g := &LoadGen{BaseURL: srv.URL, Pipeline: "vision", Conns: 8, Retries: 2, Client: srv.Client()}
	res, err := g.Run(context.Background(), trace.Ramp(100, 100, 1, 0.1), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Accepted != res.Sent {
		t.Fatalf("every request should succeed after retries: %+v", res)
	}
	if res.Shed != 0 {
		t.Fatalf("retry budget should absorb the transient shed: %+v", res)
	}
	if res.Retries == 0 || res.RetriedOK == 0 {
		t.Fatalf("want salvaged retries recorded, got %+v", res)
	}
	if res.Retries < res.RetriedOK {
		t.Fatalf("each salvage takes at least one retry: %+v", res)
	}
}

func TestLoadGenUnknownPipelineCountsErrors(t *testing.T) {
	srv := httptest.NewServer(fakeBackend(nil, nil, nil))
	defer srv.Close()
	g := &LoadGen{BaseURL: srv.URL, Pipeline: "nope", Conns: 2, Client: srv.Client()}
	res, err := g.Run(context.Background(), trace.Ramp(100, 100, 1, 0.1), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != res.Sent || res.Sent == 0 {
		t.Fatalf("404s must count as errors: %+v", res)
	}
}
