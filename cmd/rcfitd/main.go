// Command rcfitd serves PACT reductions over HTTP: POST a SPICE deck to
// /reduce and get back the reduced deck as JSON. It is rcfit as a
// daemon — same pipeline, same typed errors — plus the service layer's
// bounded admission queue, content-addressed model cache, and
// singleflight dedup, so a farm of verification jobs hammering the same
// handful of decks pays for each reduction once.
//
// Usage:
//
//	rcfitd [-addr host:port] [-workers n] [-queue n] [-cache n]
//	       [-req-timeout d] [-drain-timeout d]
//
// Endpoints:
//
//	POST /reduce?fmax=5e9[&tol=0.05][&sparsify=x][&ports=n1,n2]  body: SPICE deck
//	     [&prefix=p][&maxpoles=n][&twopass=true][&subckt=true]
//	     [&shifts=0,1e9,5e9][&portcluster=16]      multi-expansion-point mode
//	GET  /healthz                                  "ok" or 503 "draining"
//	GET  /statz                                    JSON counters
//
// The query parameters are rcfit's request flags (one table in
// pact.Options), so both return the same bytes; a bad, unknown or
// repeated one is a 400 naming it. Options are canonicalized before
// keying the model cache, so every spelling of one request shares one
// cache entry and one singleflight.
//
// On SIGTERM or SIGINT the daemon drains: new work is refused with 503,
// in-flight reductions get -drain-timeout to finish, then are canceled
// through their contexts.
//
// Exit codes: 0 after a clean drain, 1 on startup or serve errors, and
// 2 when the drain deadline forced the cancellation of in-flight work —
// distinct so orchestrators can tell a graceful stop from a lossy one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcfitd:", err)
	}
	os.Exit(code)
}

// run starts the daemon and blocks until ctx is canceled (the signal
// path) or the listener fails. It returns the process exit code: 0 for
// a clean drain, 1 for errors, 2 for a forced drain.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("rcfitd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8607", "listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent reductions (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth before 429s (0 = 4x workers)")
	cache := fs.Int("cache", 0, "model cache capacity in entries (0 = 256)")
	reqTimeout := fs.Duration("req-timeout", 0, "per-request reduction deadline (0 = 2m)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"grace for in-flight reductions on SIGTERM/SIGINT before they are canceled")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if fs.NArg() > 0 {
		return 1, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return 1, err
	}
	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		RequestTimeout: *reqTimeout,
	})
	// The listening line goes to stdout so scripts (and the smoke tests)
	// can discover a :0-assigned port.
	fmt.Fprintf(stdout, "rcfitd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: svc}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return 1, err
	case <-ctx.Done():
	}

	fmt.Fprintf(stderr, "rcfitd: signal received, draining (grace %v)\n", *drainTimeout)
	svc.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Drain(dctx)
	shutErr := hs.Shutdown(dctx)
	svc.Close()
	if drainErr != nil {
		return 2, fmt.Errorf("forced drain: %w", drainErr)
	}
	if shutErr != nil {
		return 2, fmt.Errorf("forced shutdown: %w", shutErr)
	}
	fmt.Fprintln(stderr, "rcfitd: drained cleanly")
	return 0, nil
}
