// Command respin-serve is the long-running evaluation service: the
// /v1 HTTP API of internal/serve over a persistent experiments.Runner,
// so repeated design-space queries amortize the singleflight cache and
// worker pool that one-shot CLI invocations rebuild every time.
//
// Usage:
//
//	respin-serve [-addr 127.0.0.1:8080] [-queue N] [-grace 60s]
//	             [-jobs N] [-q] [-quick] [-journal dir]
//	             [-cpuprofile f] [-memprofile f] [-metrics f] [-events f]
//
// A served /v1/run response is byte-identical to `respin-sim -metrics`
// output for the same request. SIGTERM (or SIGINT) drains: the
// listener closes, in-flight runs finish (bounded by -grace), and the
// process exits 0; -metrics then holds the final server registry
// snapshot.
//
// With -journal DIR the service keeps its runs in a run store there,
// the same store, in the same form, that respin-bench and respin-sweep
// keep with -checkpoint (internal/runstore): an entry is keyed by the
// whole run definition, runs checkpoint every 20000 simulated cycles,
// and each complete or wear-out outcome is committed. The server reads
// an entry only when its request arrives: it encodes a committed
// outcome without re-running it and resumes an interrupted run from its
// checkpoint, whichever tool wrote the entry, so `respin-bench -quick
// -checkpoint DIR` followed by `respin-serve -quick -journal DIR`
// answers the eval preset without a run. A store another simulation
// model wrote is cleared at the first request, whose runs run again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/cli"
	"respin/internal/experiments"
	"respin/internal/serve"
)

// main delegates to run so deferred cleanup (profile flushing, telemetry
// outputs) survives the explicit exit code.
func main() { os.Exit(run()) }

func run() int {
	app := cli.New("respin-serve", v1.RunRequest{},
		cli.WithParallelFlags(),
		cli.WithProfileFlags(),
		cli.WithTelemetryFlags(),
	)
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	queue := flag.Int("queue", 0, "admission queue capacity (0 = 2x job slots)")
	grace := flag.Duration("grace", 60*time.Second, "drain grace period for in-flight runs on shutdown")
	quiet := flag.Bool("q", false, "suppress per-run progress lines")
	journalDir := flag.String("journal", "", "directory for the crash-safe run journal (after a restart, a re-requested run is served from disk or resumes from its checkpoint)")
	quick := flag.Bool("quick", false, "use the reduced evaluation runner (short quotas, four benchmarks)")
	flag.Parse()

	cleanup, err := app.Start()
	if err != nil {
		return app.Fail(err)
	}
	defer func() {
		if err := cleanup(); err != nil {
			fmt.Fprintf(os.Stderr, "respin-serve: %v\n", err)
		}
	}()

	r := experiments.NewRunner()
	if *quick {
		r = experiments.QuickRunner()
	}
	r.Jobs = app.Jobs
	if !*quiet {
		r.Progress = os.Stderr
	}
	s, err := serve.New(serve.Options{
		Runner:    r,
		Queue:     *queue,
		Telemetry: app.Collector(),
		Journal:   *journalDir,
	})
	if err != nil {
		return app.Fail(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop()
		fmt.Fprintln(os.Stderr, "respin-serve: draining")
		s.BeginDrain()
		shCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(shCtx)
	}()

	// Listen explicitly so ":0" works: the resolved address is printed,
	// which is how the chaos harness (and scripts) find an
	// ephemeral-port server.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return app.Fail(err)
	}
	fmt.Fprintf(os.Stderr, "respin-serve: listening on %s\n", ln.Addr())
	err = httpSrv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return app.Fail(err)
	}
	if err := <-shutdownErr; err != nil {
		return app.Fail(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "respin-serve: drained")
	return 0
}
