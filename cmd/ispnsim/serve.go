package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ispn/internal/serve"
)

// shutdownGrace bounds how long in-flight requests (including open /trace
// streams) may linger after a shutdown signal.
const shutdownGrace = 5 * time.Second

// Connection timeouts: a client gets readHeaderTimeout to send its request
// headers and a keep-alive connection closes after idleTimeout without a
// request. There is deliberately no write timeout, so a long-lived /trace
// stream is never cut off mid-run.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveMain runs the HTTP control plane until SIGINT/SIGTERM, then shuts
// down gracefully: stop accepting, drain handlers, stop every session
// goroutine. The "listening" line prints only after the socket is bound, so
// scripts can treat it as the readiness mark.
func serveMain(addr, dir string) error {
	m := serve.NewManager(serve.Config{ScenarioDir: dir})
	srv := &http.Server{
		Handler:           m.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("ispnsim serve: listening on http://%s (scenario library: %s)\n", ln.Addr(), dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		m.Close()
		return err
	case s := <-sig:
		fmt.Printf("ispnsim serve: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := srv.Shutdown(ctx)
		m.Close()
		return err
	}
}
