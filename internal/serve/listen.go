package serve

import (
	"context"
	"net"
	"net/http"
	"time"
)

// NewHTTPServer is the listener's limits around h. A client gets 5 s
// to finish its request headers and 30 s for the whole request (the
// largest is a 256 KB POST batch); an idle keep-alive connection is
// closed after two minutes; headers are capped at 256 KB, which still
// fits a GET carrying the full 4096-key batch. There is deliberately
// no WriteTimeout: it would bound the handler, and
// /debug/pprof/profile (30 s by default, longer on request), a
// paper-scale /api/analyze run and a streamed trace download all
// legitimately outlast any limit that would be useful against a
// stalled reader.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    256 << 10,
	}
}

// ServeUntil serves on ln until ctx is done (SIGINT/SIGTERM, in
// `utlbsim serve`), then shuts srv down: the listener closes at once,
// requests in flight get drain to finish, and the error says whether
// they did.
func ServeUntil(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	served := make(chan error, 1) // Serve's one result, so the send never blocks
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-served // Shutdown closed the listener, so Serve has returned
	return err
}
