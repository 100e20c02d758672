// The scenario queue: POST /api/queue accepts a declarative scenario
// spec, validates it up front (parse + compile, so a bad spec is a 400
// rather than a failed job), and executes it server-side on a single
// background worker — scenario runs are CPU-bound simulations, so the
// queue serializes them instead of letting concurrent posts contend.
// Finished runs archive their full report into the store (kind
// "scenario") and become ordinary dashboard runs; GET /api/queue lists
// the job log newest-first.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ibcbench/internal/scenario"
)

// queueJob is one queued scenario execution, surfaced verbatim by
// GET /api/queue and the dashboard's queue section.
type queueJob struct {
	ID       int    `json:"id"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Status   string `json:"status"` // queued | running | done | failed
	Queued   string `json:"queued"`
	Finished string `json:"finished,omitempty"`
	// RunID is the archived store run holding the report (done only).
	RunID string `json:"run_id,omitempty"`
	// Passed and Violations summarize the assertion verdicts (done only).
	Passed     *bool  `json:"passed,omitempty"`
	Violations int    `json:"violations,omitempty"`
	Error      string `json:"error,omitempty"`
}

// queueState lives on the Server; the worker goroutine starts lazily
// on the first enqueue so idle services spawn nothing.
type queueState struct {
	mu     sync.Mutex
	jobs   []*queueJob
	specs  map[int]scenario.Spec
	ch     chan int
	worker sync.Once
}

const queueDepth = 64

// queueJobs snapshots the job log newest-first.
func (s *Server) queueJobs() []queueJob {
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	jobs := make([]queueJob, 0, len(s.queue.jobs))
	for i := len(s.queue.jobs) - 1; i >= 0; i-- {
		jobs = append(jobs, *s.queue.jobs[i])
	}
	return jobs
}

// queueBusy reports whether any job is still queued or running — the
// dashboard polls exactly while the worker is busy.
func (s *Server) queueBusy() bool {
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	for _, j := range s.queue.jobs {
		if j.Status == "queued" || j.Status == "running" {
			return true
		}
	}
	return false
}

// handleQueueList reports every job this process accepted, newest
// first. The log is in-memory: it documents the running service, while
// the durable artifacts are the archived store runs the jobs produce.
func (s *Server) handleQueueList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.queueJobs()})
}

// handleQueuePost accepts one spec (the request body, same bytes as an
// `ibcbench run -scenario` file) with an optional ?seed=N override,
// validates it, and enqueues it for the worker. The response is 202
// with the job snapshot; poll GET /api/queue (or watch the dashboard)
// for the verdict and the archived run id.
func (s *Server) handleQueuePost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, err := scenario.Compile(spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var seed int64
	if v := r.URL.Query().Get("seed"); v != "" {
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad seed: %w", err))
			return
		}
	}
	job := &queueJob{
		Scenario: spec.Name,
		Seed:     seed,
		Status:   "queued",
		Queued:   time.Now().UTC().Format(time.RFC3339),
	}
	s.queue.mu.Lock()
	if s.queue.specs == nil {
		s.queue.specs = map[int]scenario.Spec{}
		s.queue.ch = make(chan int, queueDepth)
	}
	if len(s.queue.ch) == cap(s.queue.ch) {
		s.queue.mu.Unlock()
		writeErr(w, http.StatusTooManyRequests, fmt.Errorf("queue full (%d pending)", queueDepth))
		return
	}
	job.ID = len(s.queue.jobs) + 1
	s.queue.jobs = append(s.queue.jobs, job)
	s.queue.specs[job.ID] = spec
	s.queue.ch <- job.ID
	snapshot := *job
	s.queue.mu.Unlock()
	s.queue.worker.Do(func() { go s.queueWorker() })
	writeJSON(w, http.StatusAccepted, map[string]any{"job": snapshot})
}

// queueWorker drains the queue one scenario at a time for the life of
// the process.
func (s *Server) queueWorker() {
	for id := range s.queue.ch {
		s.runQueued(id)
	}
}

// runQueued executes one job: run the spec, archive the report, and
// update the job log. Failures (compile raced a registry change, run
// error, store error) land on the job rather than crashing the worker.
func (s *Server) runQueued(id int) {
	s.queue.mu.Lock()
	spec := s.queue.specs[id]
	job := s.queue.jobs[id-1]
	job.Status = "running"
	seed := job.Seed
	s.queue.mu.Unlock()

	rep, err := scenario.Run(spec, seed, nil)
	var runID string
	var passed bool
	var violations int
	if err == nil {
		passed = rep.Passed()
		violations = len(rep.Violations)
		var payload []byte
		if payload, err = json.MarshalIndent(rep, "", "  "); err == nil {
			payload = append(payload, '\n')
			// Nanosecond stamps keep repeated same-spec jobs distinct —
			// virtual-clock reports are byte-identical, so a coarser
			// stamp would dedupe them into one archived run.
			m, _, ierr := s.st.Ingest("scenario", "", time.Now().UTC().Format(time.RFC3339Nano), payload)
			if ierr != nil {
				err = ierr
			} else {
				runID = m.ID
			}
		}
	}

	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	job.Finished = time.Now().UTC().Format(time.RFC3339)
	delete(s.queue.specs, id)
	if err != nil {
		job.Status = "failed"
		job.Error = err.Error()
		return
	}
	job.Status = "done"
	job.RunID = runID
	job.Passed = &passed
	job.Violations = violations
}
