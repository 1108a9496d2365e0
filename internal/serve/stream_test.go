package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// failingWriter is a ResponseWriter whose connection dies after limit
// body bytes, and which notes every status written to it.
type failingWriter struct {
	*httptest.ResponseRecorder
	limit    int
	statuses []int
}

func (w *failingWriter) WriteHeader(code int) {
	w.statuses = append(w.statuses, code)
	w.ResponseRecorder.WriteHeader(code)
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.Body.Len(); len(p) > room {
		w.ResponseRecorder.Write(p[:max(room, 0)])
		return max(room, 0), errors.New("connection reset")
	}
	return w.ResponseRecorder.Write(p)
}

// TestStreamingHandlersAbortMidStream: once body bytes are out, a
// write failure must abort the connection — not call http.Error,
// which would append an error text to a truncated body under the 200
// already sent.
func TestStreamingHandlersAbortMidStream(t *testing.T) {
	ts, _ := newLiveServer(t)
	post(t, ts, "/api/xlate/insert", `{"keys":[{"pid":1,"vpn":1,"pfn":1},{"pid":1,"vpn":2,"pfn":2}]}`)
	for i := 0; i < 8; i++ {
		get(t, ts, "/api/xlate/lookup?pid=1&vpn=1") // every second request is sampled
	}
	handler := ts.Config.Handler
	const analyzeURL = "/api/analyze?exp=t6&scale=0.03&apps=fft&topk=2"
	if code, body := get(t, ts, analyzeURL); code != http.StatusOK { // runs and caches the experiment
		t.Fatalf("analyze: code %d body %.200q", code, body)
	}
	var infos []struct {
		TraceURL string `json:"trace_url"`
	}
	if _, body := get(t, ts, "/api/runs"); json.Unmarshal([]byte(body), &infos) != nil || len(infos) != 1 {
		t.Fatalf("runs listing: %.200q", body)
	}

	for _, url := range []string{analyzeURL, infos[0].TraceURL, "/api/live/trace", "/metrics"} {
		whole := httptest.NewRecorder()
		handler.ServeHTTP(whole, httptest.NewRequest("GET", url, nil))
		if whole.Code != http.StatusOK || whole.Body.Len() < 200 {
			t.Fatalf("%s: code %d, %d bytes", url, whole.Code, whole.Body.Len())
		}

		w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), limit: 100}
		func() {
			defer func() {
				if r := recover(); r != http.ErrAbortHandler {
					t.Errorf("%s: recovered %v, want http.ErrAbortHandler", url, r)
				}
			}()
			handler.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		}()
		if len(w.statuses) != 0 {
			t.Errorf("%s: WriteHeader%v after the body had started", url, w.statuses)
		}
		if got := w.Body.String(); got != whole.Body.String()[:100] {
			t.Errorf("%s: body %q, want the first 100 bytes of the full reply and nothing after", url, got)
		}
	}
}

// TestStreamFailsBeforeFirstByte: with nothing sent yet the error is
// still an ordinary 500.
func TestStreamFailsBeforeFirstByte(t *testing.T) {
	rec := httptest.NewRecorder()
	stream(rec, func(io.Writer) error { return errors.New("marshal failed") })
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("code %d, want 500", rec.Code)
	}
}
