package cliutil

import (
	"net"
	"net/http"
	"time"
)

// Timeouts of every HTTP listener the tools open. Variables so the tests
// can shorten them.
var (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a connection that never finishes (or never
	// starts) a request cannot hold a goroutine and a descriptor forever.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections left idle this long.
	idleTimeout = 2 * time.Minute
)

// serve is the one constructor of the tools' HTTP servers — the
// coordinator listener and the -debug listener — and starts serving h on
// ln in the background. It sets no whole-request read or write deadline:
// a results upload may be large, and /debug/pprof/profile streams for as
// long as the client asks.
func serve(ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go srv.Serve(ln)
	return srv
}
