// Package serve is the ibcbench experiment service: an HTTP facade over
// an internal/store archive. It exposes a JSON API — run listing and
// drill-down, CI ingest, cross-run trends, two-run diffs, and the
// rolling-median regression detector — plus a dependency-free HTML
// dashboard with inline-SVG trend charts (see dashboard.go). Everything
// is stdlib-only; the dashboard ships zero external assets.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ibcbench/internal/resultdiff"
	"ibcbench/internal/store"
	"ibcbench/internal/tracecheck"
)

// Upload limits, each a little over the largest real document: a
// result document is at most about 100 KB (`sweep -experiment all`),
// and a bench workload's trace reaches 69 MB (`two-peak`).
const (
	maxIngestBytes = 8 << 20
	maxTraceBytes  = 128 << 20
)

// Server routes requests onto one open store.
type Server struct {
	st  *store.Store
	mux *http.ServeMux
}

// New builds the HTTP handler over an open store.
func New(st *store.Store) *Server {
	s := &Server{st: st, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/runs", s.handleRuns)
	s.mux.HandleFunc("GET /api/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /api/runs/{id}/payload", s.handlePayload)
	s.mux.HandleFunc("GET /api/runs/{id}/trace", s.handleTraceGet)
	s.mux.HandleFunc("POST /api/runs/{id}/trace", s.handleTracePost)
	s.mux.HandleFunc("GET /api/runs/{id}/flame", s.handleFlameAPI)
	s.mux.HandleFunc("GET /api/runs/{id}/critpath", s.handleCritPathAPI)
	s.mux.HandleFunc("POST /api/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /api/trend", s.handleTrend)
	s.mux.HandleFunc("GET /api/regression", s.handleRegression)
	s.mux.HandleFunc("GET /api/diff", s.handleDiff)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRunPage)
	s.mux.HandleFunc("GET /runs/{id}/flame", s.handleFlamePage)
	s.mux.HandleFunc("GET /runs/{id}/critpath", s.handleCritPathPage)
	s.mux.HandleFunc("GET /{$}", s.handleDashboard)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// readBody reads a request body of at most limit bytes. A larger body
// answers 413 and nothing is read past the limit; a declared
// Content-Length over it is refused before reading anything.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", r.ContentLength, limit))
		return nil, false
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, err)
		return nil, false
	}
	return data, true
}

// handleRuns lists every archived run in ingest order.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.st.Runs()})
}

// handleRun returns one run's meta with the payload embedded verbatim.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	meta, payload, err := s.st.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"meta": meta, "payload": json.RawMessage(payload)})
}

// handlePayload serves the archived document bytes exactly as ingested.
func (s *Server) handlePayload(w http.ResponseWriter, r *http.Request) {
	_, payload, err := s.st.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// handleTraceGet serves a run's attached Chrome trace (load it at
// ui.perfetto.dev).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	data, err := s.st.Trace(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", r.PathValue("id")+"-trace.json"))
	w.Write(data)
}

// handleTracePost attaches a trace to an archived run. The trace is
// structurally validated at ingest time (tracecheck) and the verdict
// badges the run — an invalid trace is still stored for inspection.
func (s *Server) handleTracePost(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, maxTraceBytes)
	if !ok {
		return
	}
	_, verr := tracecheck.Validate(data)
	meta, err := s.st.AttachTrace(r.PathValue("id"), data, verr == nil)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	resp := map[string]any{"meta": meta, "trace_valid": verr == nil}
	if verr != nil {
		resp["trace_error"] = verr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIngest archives a run document posted by CI or the CLI. The
// body is the payload verbatim (a -out document, a `bench/run.sh`
// result line, or a scenario report); query parameters carry the
// provenance the bytes don't: ?kind=experiment|bench|scenario,
// ?commit=<rev>, ?time=<rfc3339>.
// Re-posting identical content is idempotent — the response reports
// created=false and nothing is written.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	payload, ok := readBody(w, r, maxIngestBytes)
	if !ok {
		return
	}
	q := r.URL.Query()
	meta, created, err := s.st.Ingest(q.Get("kind"), q.Get("commit"), q.Get("time"), payload)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, map[string]any{"meta": meta, "created": created})
}

// handleTrend returns one metric's value across runs in ingest order:
// ?metric=<flattened path> (required), ?kind= filters by payload kind.
func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	points, err := s.st.Trend(q.Get("metric"), q.Get("kind"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metric": q.Get("metric"), "points": points,
	})
}

// handleRegression runs the rolling-median detector: ?metric= (required),
// ?k= window size (default 5), ?tolerance= percent (default 10), ?kind=.
func (s *Server) handleRegression(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	k, tol := 5, 10.0
	var err error
	if v := q.Get("k"); v != "" {
		if k, err = strconv.Atoi(v); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k: %w", err))
			return
		}
	}
	if v := q.Get("tolerance"); v != "" {
		if tol, err = strconv.ParseFloat(v, 64); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad tolerance: %w", err))
			return
		}
	}
	reg, err := s.st.CheckRegression(q.Get("metric"), q.Get("kind"), k, tol)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, reg)
}

// diffRow is resultdiff.Row on the wire.
type diffRow struct {
	Path string `json:"path"`
	Old  any    `json:"old"`
	New  any    `json:"new"`
	// DeltaPct is present only for numeric pairs with a nonzero old.
	DeltaPct *float64 `json:"delta_pct,omitempty"`
}

// handleDiff compares two archived runs metric by metric, the stored
// counterpart of `ibcbench diff a.json b.json`: ?a=<id>&b=<id>.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	load := func(id string) (store.Meta, any, error) {
		meta, payload, err := s.st.Get(id)
		if err != nil {
			return store.Meta{}, nil, err
		}
		var doc any
		if err := json.Unmarshal(payload, &doc); err != nil {
			return store.Meta{}, nil, fmt.Errorf("run %s: %w", id, err)
		}
		return meta, doc, nil
	}
	metaA, docA, err := load(q.Get("a"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	metaB, docB, err := load(q.Get("b"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	cfgDiff := resultdiff.ConfigDiff(metaA.Config, metaB.Config)
	cfgRows := make([]string, 0, len(cfgDiff))
	for _, d := range cfgDiff {
		cfgRows = append(cfgRows, d.String())
	}
	d := resultdiff.Metrics(docA, docB)
	var changed []diffRow
	for _, row := range d.Changed {
		changed = append(changed, diffRow(row))
	}
	paths := func(rows []resultdiff.Row) []string {
		var out []string
		for _, row := range rows {
			out = append(out, row.Path)
		}
		return out
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"a": metaA, "b": metaB,
		"config_mismatch": cfgRows,
		"changed":         changed,
		"added":           paths(d.Added),
		"removed":         paths(d.Removed),
	})
}
