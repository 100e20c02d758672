// Package store is the persistent experiment archive behind `ibcbench
// serve` and `-store`: a stdlib-only, append-only run database on a
// plain directory. Every run — a sweep's `-out` result document, a
// bench2json bench document, or a scenario report — is persisted verbatim
// under a content-addressed run ID derived from (kind, commit, config
// header, seed, timestamp, payload), so re-posting the same run is
// idempotent by construction and archived bytes round-trip identically.
//
// Layout:
//
//	<dir>/index.jsonl       one JSON meta line per ingest/update (append-only journal)
//	<dir>/runs/<id>/payload.json   the archived document, byte-identical
//	<dir>/runs/<id>/trace.json     optional attached Chrome trace
//
// Durability: payload files land via temp-file + rename before the
// index line is appended in a single O_APPEND write, so a crash leaves
// either a complete run or an orphan payload directory the index never
// references (harmless — the next ingest of the same content reuses
// it). On open, a truncated or corrupt index tail — the torn-write
// signature of a crash mid-append — is dropped and the file truncated
// back to the last intact line. Later index lines for an existing ID
// update its metadata (trace attachment), keeping the journal
// append-only.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"ibcbench/internal/resultdiff"
)

// Meta is one archived run's index entry.
type Meta struct {
	// ID is the content-addressed run identifier (16 hex chars).
	ID string `json:"id"`
	// Seq is the monotone ingest sequence number (1-based); trends run
	// in Seq order.
	Seq int64 `json:"seq"`
	// Kind classifies the payload: "experiment" (a sweep's -out
	// document), "bench" (a bench2json document), "scenario" (a `run`
	// report, its trace attached when the run was traced).
	Kind string `json:"kind"`
	// Commit is the VCS revision that produced the run ("" if unknown).
	Commit string `json:"commit,omitempty"`
	// Seed is the base RNG seed lifted from the config header (0 if the
	// payload carries none).
	Seed int64 `json:"seed,omitempty"`
	// Time is the poster-supplied run timestamp (opaque; RFC3339 by
	// convention). Part of the run key, never assigned by the store —
	// a server clock would break re-post idempotency.
	Time string `json:"time,omitempty"`
	// Config is the payload's config header copy, the store's
	// compatibility key: runs group into one trend window only when
	// their headers agree on every field (resultdiff.Compatible).
	Config map[string]any `json:"config,omitempty"`
	// TraceValid reports the attached trace's structural validation:
	// nil = no trace attached.
	TraceValid *bool `json:"trace_valid,omitempty"`
}

// HasTrace reports whether a trace is attached.
func (m Meta) HasTrace() bool { return m.TraceValid != nil }

// Store is one open archive directory. All methods are safe for
// concurrent use.
type Store struct {
	mu    sync.Mutex
	dir   string
	index *os.File // index.jsonl, O_APPEND
	byID  map[string]*Meta
	order []string // IDs in Seq order
	seq   int64
}

// Open opens (creating if needed) the archive at dir and replays the
// index journal, recovering from a torn tail write.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, byID: make(map[string]*Meta)}
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.index = f
	return s, nil
}

// Close releases the index handle. Further mutations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		return nil
	}
	err := s.index.Close()
	s.index = nil
	return err
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.jsonl") }

func (s *Store) runDir(id string) string { return filepath.Join(s.dir, "runs", id) }

// replay loads index.jsonl, tolerating exactly one torn tail: every
// line up to the first unparsable one is applied, and the file is
// truncated back to the last intact line so the journal is clean again.
func (s *Store) replay() error {
	data, err := os.ReadFile(s.indexPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	good := 0 // bytes covered by intact, applied lines
	for off := 0; off < len(data); {
		nl := off
		for nl < len(data) && data[nl] != '\n' {
			nl++
		}
		if nl == len(data) {
			break // unterminated tail: torn write, drop it
		}
		var m Meta
		if err := json.Unmarshal(data[off:nl], &m); err != nil || m.ID == "" {
			break // corrupt tail line: drop it and everything after
		}
		s.apply(&m)
		good = nl + 1
		off = good
	}
	if good < len(data) {
		if err := os.Truncate(s.indexPath(), int64(good)); err != nil {
			return fmt.Errorf("store: truncate torn index tail: %w", err)
		}
	}
	return nil
}

// apply folds one journal line into the in-memory view: new IDs append
// to the order, later lines for a known ID update its metadata in
// place (Seq keeps the original).
func (s *Store) apply(m *Meta) {
	if prev, ok := s.byID[m.ID]; ok {
		seq := prev.Seq
		*prev = *m
		prev.Seq = seq
		return
	}
	if m.Seq > s.seq {
		s.seq = m.Seq
	}
	s.byID[m.ID] = m
	s.order = append(s.order, m.ID)
}

// appendLine journals one meta record with a single O_APPEND write.
func (s *Store) appendLine(m *Meta) error {
	if s.index == nil {
		return fmt.Errorf("store: closed")
	}
	line, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')
	if _, err := s.index.Write(line); err != nil {
		return fmt.Errorf("store: append index: %w", err)
	}
	return nil
}

// RunID derives the content-addressed identifier of a run: a SHA-256
// over kind, commit, seed, timestamp, the canonicalized config header
// and the payload bytes, truncated to 16 hex chars. Identical content
// yields an identical ID, which makes re-ingest a no-op.
func RunID(kind, commit string, seed int64, timestamp string, cfg map[string]any, payload []byte) string {
	h := sha256.New()
	for _, part := range []string{kind, commit, strconv.FormatInt(seed, 10), timestamp} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	// The config header is part of the payload bytes too, but hashing
	// its canonical form keeps the key stable if payload formatting
	// (indentation) changes between posts of the same run.
	flat := resultdiff.Flatten("", cfg)
	paths := make([]string, 0, len(flat))
	for p := range flat {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "%s=%v\x00", p, flat[p])
	}
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Ingest archives one run document. Kind classifies the payload, commit
// and timestamp are provenance supplied by the poster (both may be
// empty), payload is the document verbatim — it must be valid JSON; its
// "config" header (if any) and the header's "seed" are lifted into the
// index entry. The returned bool is false when the identical run was
// already archived (idempotent re-post: nothing is written).
func (s *Store) Ingest(kind, commit, timestamp string, payload []byte) (Meta, bool, error) {
	var doc any
	if err := json.Unmarshal(payload, &doc); err != nil {
		return Meta{}, false, fmt.Errorf("store: payload is not JSON: %w", err)
	}
	if kind == "" {
		kind = "experiment"
	}
	cfg := resultdiff.ConfigHeader(doc)
	var seed int64
	if f, ok := cfg["seed"].(float64); ok {
		seed = int64(f)
	}
	id := RunID(kind, commit, seed, timestamp, cfg, payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.byID[id]; ok {
		return *m, false, nil
	}
	if err := s.writeRunFile(id, "payload.json", payload); err != nil {
		return Meta{}, false, err
	}
	m := &Meta{ID: id, Seq: s.seq + 1, Kind: kind, Commit: commit, Seed: seed, Time: timestamp, Config: cfg}
	if err := s.appendLine(m); err != nil {
		return Meta{}, false, err
	}
	s.seq = m.Seq
	s.byID[id] = m
	s.order = append(s.order, id)
	return *m, true, nil
}

// AttachTrace stores a run's Chrome trace next to its payload and
// records the validation verdict (the caller runs tracecheck), updating
// the journal with a fresh meta line.
func (s *Store) AttachTrace(id string, trace []byte, valid bool) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.byID[id]
	if !ok {
		return Meta{}, fmt.Errorf("store: no run %s", id)
	}
	if err := s.writeRunFile(id, "trace.json", trace); err != nil {
		return Meta{}, err
	}
	v := valid
	m.TraceValid = &v
	if err := s.appendLine(m); err != nil {
		return Meta{}, err
	}
	return *m, nil
}

// writeRunFile lands a file under runs/<id>/ atomically: temp file in
// the same directory, then rename.
func (s *Store) writeRunFile(id, name string, data []byte) error {
	dir := s.runDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Runs lists every archived run in ingest order.
func (s *Store) Runs() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.byID[id])
	}
	return out
}

// Get returns one run's meta and its payload bytes exactly as ingested.
func (s *Store) Get(id string) (Meta, []byte, error) {
	s.mu.Lock()
	m, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return Meta{}, nil, fmt.Errorf("store: no run %s", id)
	}
	meta := *m
	s.mu.Unlock()
	payload, err := os.ReadFile(filepath.Join(s.runDir(id), "payload.json"))
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: %w", err)
	}
	return meta, payload, nil
}

// Trace returns a run's attached trace bytes.
func (s *Store) Trace(id string) ([]byte, error) {
	s.mu.Lock()
	m, ok := s.byID[id]
	hasTrace := ok && m.HasTrace()
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: no run %s", id)
	}
	if !hasTrace {
		return nil, fmt.Errorf("store: run %s has no trace", id)
	}
	data, err := os.ReadFile(filepath.Join(s.runDir(id), "trace.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// Dir reports the archive directory.
func (s *Store) Dir() string {
	return s.dir
}
