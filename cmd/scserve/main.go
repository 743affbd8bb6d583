// Command scserve runs the SC-Share advice service: a long-running HTTP
// server answering federation-sharing queries (POST /v1/advise), streaming
// Fig. 7-style price sweeps as NDJSON (POST /v1/sweep), following drifting
// price schedules with warm re-equilibration (POST /v1/track, NDJSON or
// SSE), and exposing liveness (GET /healthz) and expvar-style counters
// (GET /metrics). Frameworks — and their evaluation caches — persist
// across requests per federation configuration, so repeated queries at
// drifting prices are answered warm; see DESIGN.md §11 and §14.
//
// Usage:
//
//	scserve -addr :8080
//	scserve -addr :8080 -solve-timeout 30s -drain 5s
//	scserve -addr :8080 -max-inflight 4 -queue-wait 500ms
//	scserve -addr :8080 -snapshot /var/lib/scserve/warm.json
//	scserve -addr :8080 -dispatch http://dispatcher:8081
//
// With -max-inflight the admission layer bounds concurrent solves and
// sheds the excess with 429 + Retry-After priced from observed solve
// latency. With -snapshot the server restores its frameworks' solved
// vectors from the given file on boot and saves them back on graceful
// shutdown, so a restarted replica answers its first repeat queries from
// cache. With -dispatch, POST /v1/sweep fans its grid across a scdispatch
// fleet instead of the local worker pool (docs/OPERATIONS.md, "Fleet
// quickstart"); advise and track always solve locally.
//
// The server drains gracefully on SIGINT/SIGTERM: the listener closes, the
// drain window lets in-flight solves finish, and anything still running is
// canceled through its request context when the window expires.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scshare/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scserve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled (a signal arrives), then drains. It is
// split from main, with the listener bound before the first request is
// served, so the end-to-end test can run the real command loop on ":0".
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	solveTimeout := fs.Duration("solve-timeout", 0, "per-request solve cap (0 = only the client's disconnect cancels)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight requests")
	maxFrameworks := fs.Int("max-frameworks", 0, "cached frameworks across federation configurations (0 = default)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent solves before shedding with 429 (0 = unbounded)")
	queueWait := fs.Duration("queue-wait", 0, "how long a request may queue for a solve slot before shedding (0 = shed immediately)")
	snapshotPath := fs.String("snapshot", "", "warm-cache snapshot file: restored on boot, saved on graceful shutdown")
	dispatchURL := fs.String("dispatch", "", "scdispatch base URL: fan /v1/sweep across the fleet instead of solving locally")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	handler := serve.New(serve.Options{
		SolveTimeout:  *solveTimeout,
		MaxFrameworks: *maxFrameworks,
		MaxInflight:   *maxInflight,
		QueueWait:     *queueWait,
		DispatchURL:   *dispatchURL,
	})
	if *dispatchURL != "" {
		fmt.Fprintf(stdout, "scserve: dispatching sweeps to %s\n", *dispatchURL)
	}
	if *snapshotPath != "" {
		n, err := handler.LoadSnapshotFile(*snapshotPath)
		if err != nil {
			// A bad snapshot must not keep the service down: log and serve cold.
			fmt.Fprintf(stdout, "scserve: ignoring snapshot %s: %v\n", *snapshotPath, err)
		} else if n > 0 {
			fmt.Fprintf(stdout, "scserve: restored %d warm-cache entries from %s\n", n, *snapshotPath)
		}
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(stdout, "scserve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "scserve: draining for up to %v\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// The drain window expired: close the remaining connections, which
		// cancels their request contexts and unwinds the solves.
		srv.Close()
		return fmt.Errorf("drain window expired: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if *snapshotPath != "" {
		// Save after the drain so the snapshot includes everything the last
		// in-flight solves cached.
		if err := handler.SaveSnapshotFile(*snapshotPath); err != nil {
			fmt.Fprintf(stdout, "scserve: saving snapshot %s: %v\n", *snapshotPath, err)
		} else {
			fmt.Fprintf(stdout, "scserve: saved warm-cache snapshot to %s\n", *snapshotPath)
		}
	}
	fmt.Fprintln(stdout, "scserve: bye")
	return nil
}
