// The experiment-service entry points: `ibcbench serve` runs the HTTP
// dashboard over a persistent store, and `-store DIR` on a normal run
// archives the result document in place (no server needed — serve can
// be pointed at the same directory later).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ibcbench/internal/serve"
	"ibcbench/internal/store"
	"ibcbench/internal/tracecheck"
)

// Server timeouts. WriteTimeout stays unset: a stored trace download
// can be tens of MB, and a slow client must still get all of it.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

// runServe starts the experiment service over a store directory until
// SIGINT or SIGTERM:
//
//	ibcbench serve [-store DIR] [-addr HOST:PORT]
func runServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench serve", flag.ContinueOnError)
	dir := fs.String("store", "ibcbench-store", "experiment store directory (created if missing)")
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveStore(ctx, st, *addr, w)
}

// serveStore serves st on addr until ctx is done, then shuts the server
// down, letting in-flight requests finish for up to shutdownGrace. It
// closes st when it returns.
func serveStore(ctx context.Context, st *store.Store, addr string, w io.Writer) error {
	defer st.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: serve.New(st), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	fmt.Fprintf(w, "ibcbench serve: %d archived run(s) in %s — http://%s/\n", len(st.Runs()), st.Dir(), ln.Addr())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return hs.Shutdown(sctx)
}

// archiveRun ingests one result document into a local store; a non-nil
// trace is attached with its tracecheck verdict. The commit comes from
// headCommit and the timestamp from the wall clock, so every CLI
// invocation lands as a distinct run while re-posting an
// already-archived document through /api/ingest stays idempotent (the
// poster supplies the stored timestamp there).
func archiveRun(dir, kind string, payload, trace []byte, w io.Writer) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	// Nanosecond stamps keep back-to-back same-seed invocations distinct
	// — virtual-clock results are byte-identical, so a coarser stamp
	// would dedupe them into one run.
	m, created, err := st.Ingest(kind, headCommit(), time.Now().UTC().Format(time.RFC3339Nano), payload)
	if err != nil {
		return fmt.Errorf("archive in %s: %w", dir, err)
	}
	if !created {
		fmt.Fprintf(w, "store: run %s already archived in %s\n", m.ID, dir)
		return nil
	}
	badge := ""
	if trace != nil {
		_, verr := tracecheck.Validate(trace)
		if m, err = st.AttachTrace(m.ID, trace, verr == nil); err != nil {
			return fmt.Errorf("attach trace to %s: %w", m.ID, err)
		}
		badge = " + trace"
		if verr != nil {
			badge = " + trace (invalid)"
		}
	}
	fmt.Fprintf(w, "store: archived run %s (seq %d)%s in %s\n", m.ID, m.Seq, badge, dir)
	return nil
}

// headCommit is the checkout's revision, or "" outside a git checkout:
// the store keys runs by content, so provenance is optional.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
