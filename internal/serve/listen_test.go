package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// listen starts ServeUntil on a loopback port and returns the address,
// the cancel that stands in for SIGTERM, and ServeUntil's result.
func listen(t *testing.T, srv *http.Server) (addr string, sigterm context.CancelFunc, result <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done, exited := make(chan error, 1), make(chan struct{})
	go func() {
		done <- ServeUntil(ctx, srv, ln, 10*time.Second)
		close(exited)
	}()
	t.Cleanup(func() {
		cancel()
		srv.Close() // whatever the test left connected
		<-exited
	})
	return ln.Addr().String(), cancel, done
}

// A client that never finishes its request headers is dropped at
// ReadHeaderTimeout, and does not hold up the translation endpoints
// meanwhile.
func TestSlowHeaderClientIsDropped(t *testing.T) {
	srv := NewHTTPServer(New().Handler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("listener limits: %+v", srv)
	}
	srv.ReadHeaderTimeout = 300 * time.Millisecond // the real limit, shortened
	addr, _, _ := listen(t, srv)

	// The server starts its header clock when it accepts, which can be
	// before Dial returns here; timing from before the dial keeps start
	// ahead of that clock.
	start := time.Now()
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /api/xlate/lookup?pid=1&vpn=1 HTTP/1.1\r\nHost: x\r\nX-Stall: "); err != nil {
		t.Fatal(err)
	}

	// With the slow client parked mid-header, lookups answer.
	for i := 0; i < 3; i++ {
		resp, err := http.Get("http://" + addr + "/api/xlate/lookup?keys=1:1,1:2")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var lr xlateLookupResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &lr) != nil || lr.Lookups != 2 {
			t.Fatalf("lookup beside a slow client: status %d body %.100q", resp.StatusCode, body)
		}
	}

	// The server hangs up on the slow client: its read ends (EOF or a
	// reset, after at most an error reply), well before the deadline
	// this test would give up at.
	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(slow)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("slow-header client still connected after %v", time.Since(start))
	}
	if strings.Contains(string(reply), "200 OK") {
		t.Fatalf("slow-header client was answered: %.100q", reply)
	}
	if waited := time.Since(start); waited < srv.ReadHeaderTimeout {
		t.Errorf("slow-header client dropped after %v, before ReadHeaderTimeout %v", waited, srv.ReadHeaderTimeout)
	}
}

// SIGINT/SIGTERM closes the listener and lets a request in flight
// finish before ServeUntil returns.
func TestShutdownDrainsInFlightRequests(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained")
	}))
	shuttingDown := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(shuttingDown) })
	addr, sigterm, result := listen(t, srv)

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{string(body), err}
	}()
	<-entered
	sigterm()
	<-shuttingDown // Shutdown has begun with the request still in its handler
	select {
	case err := <-result:
		t.Fatalf("ServeUntil returned %v with a request in flight", err)
	default:
	}
	close(release)
	if r := <-got; r.err != nil || r.body != "drained" {
		t.Errorf("in-flight request: body %q, error %v", r.body, r.err)
	}
	if err := <-result; err != nil {
		t.Errorf("ServeUntil = %v after a clean drain", err)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Error("listener still accepting after shutdown")
	}
}
