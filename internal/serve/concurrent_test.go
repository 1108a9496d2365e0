package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Hammer the server from many goroutines mixing cache hits, cache
// misses, listings, and trace downloads. Run under -race this guards
// the single-flight mutex around the process-global worker-pool width
// and the cache bookkeeping.
func TestServeConcurrentRequests(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	// Same params from every worker: one execution, many cache hits.
	warm := "/api/analyze?exp=t6&scale=0.02&apps=fft&topk=2"
	if code, body := get(t, ts, warm); code != http.StatusOK {
		t.Fatalf("warmup: code %d body %.200q", code, body)
	}

	paths := []string{
		warm,
		"/metrics?exp=t6&scale=0.02&apps=fft",
		"/metrics?exp=t6&scale=0.02&apps=fft&parallel=2", // distinct slug: a run per width
		"/metrics",
		"/api/runs",
		"/api/runs/table6-s0.02-seed1998-p1-fft/trace",
		"/",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				path := paths[(w+i)%len(paths)]
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A run that fails mid-flight must return its error, poison nothing,
// and leave the server serving concurrent and subsequent traffic.
// parseParams rejects everything known to fail, so the failing runs
// enter below it, through get: an application name the experiment's
// own worker fan-out discovers it cannot resolve.
func TestServeMidFlightFailureDoesNotPoisonServer(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good := "/api/analyze?exp=t4&scale=0.02&apps=fft&topk=2"
	bad := params{exp: "table4", scale: 0.02, seed: 1998, parallel: 1, apps: []string{"nosuchapp"}}

	var wg sync.WaitGroup
	var sawGood, sawBad atomic.Bool
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if (w+i)%2 == 0 {
					sawBad.Store(true)
					if res, err := s.get(bad); err == nil || res != nil {
						t.Errorf("failing run returned (%v, %v), want an error", res, err)
					}
					continue
				}
				sawGood.Store(true)
				resp, err := http.Get(ts.URL + good)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("good request returned %d, want 200", resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	if !sawGood.Load() || !sawBad.Load() {
		t.Fatal("test did not exercise both outcomes")
	}

	// The failed runs must not be cached as results.
	if code, body := get(t, ts, "/api/runs"); code != http.StatusOK ||
		strings.Contains(body, "nosuchapp") {
		t.Errorf("failed run leaked into the cache: %.200s", body)
	}
}
