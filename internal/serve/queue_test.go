package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/scenario"
)

// quickSpec is a tiny scenario the queue worker can run in well under a
// second — the quickstart builtin's canonical form.
const quickSpec = `{
  "name": "queued-quickstart",
  "topology": {"preset": "two"},
  "deploy": {},
  "workload": {"rate": 1, "windows": 1},
  "seed": 1
}`

func postQueue(t *testing.T, base, query, body string) (map[string]json.RawMessage, int) {
	t.Helper()
	resp, err := http.Post(base+"/api/queue"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/queue: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode queue response: %v", err)
	}
	return out, resp.StatusCode
}

// waitForJob polls the job list until the job leaves the queue or the
// deadline passes; the worker runs a real (virtual-clock) simulation,
// so completion is fast but asynchronous.
func waitForJob(t *testing.T, base string, id int) queueJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var list struct {
			Jobs []queueJob `json:"jobs"`
		}
		if code := getJSON(t, base+"/api/queue", &list); code != http.StatusOK {
			t.Fatalf("GET /api/queue: status %d", code)
		}
		for _, j := range list.Jobs {
			if j.ID == id && j.Status != "queued" && j.Status != "running" {
				return j
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %d did not finish in time", id)
	return queueJob{}
}

func TestQueueRunsSpecAndArchives(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario server-side")
	}
	ts, st := newTestServer(t)
	resp, code := postQueue(t, ts.URL, "", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /api/queue: status %d (%s)", code, resp["error"])
	}
	var job queueJob
	if err := json.Unmarshal(resp["job"], &job); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	if job.ID != 1 || job.Scenario != "queued-quickstart" || job.Status != "queued" {
		t.Fatalf("unexpected accepted job: %+v", job)
	}
	done := waitForJob(t, ts.URL, job.ID)
	if done.Status != "done" {
		t.Fatalf("job did not finish cleanly: %+v", done)
	}
	if done.Passed == nil || !*done.Passed || done.Violations != 0 {
		t.Errorf("expected a passing run, got %+v", done)
	}
	if done.RunID == "" {
		t.Fatal("finished job carries no archived run id")
	}
	meta, payload, err := st.Get(done.RunID)
	if err != nil {
		t.Fatalf("archived run not in store: %v", err)
	}
	if meta.Kind != "scenario" {
		t.Errorf("archived kind = %q, want scenario", meta.Kind)
	}
	var rep struct {
		Spec struct {
			Name string `json:"name"`
		} `json:"spec"`
		Violations []json.RawMessage `json:"violations"`
	}
	if err := json.Unmarshal(payload, &rep); err != nil {
		t.Fatalf("archived payload not a report: %v", err)
	}
	if rep.Spec.Name != "queued-quickstart" || len(rep.Violations) != 0 {
		t.Errorf("unexpected archived report: %+v", rep)
	}
}

func TestQueueRejectsBadSpecs(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name, query, body string
	}{
		{"not json", "", "{nope"},
		{"unknown field", "", `{"name":"x","topology":{"preset":"two"},"bogus":1}`},
		{"invalid topology", "", `{"name":"x","topology":{"preset":"ring:9"},"workload":{"rate":1,"windows":1}}`},
		{"bad seed", "?seed=notanumber", quickSpec},
	}
	for _, c := range cases {
		resp, code := postQueue(t, ts.URL, c.query, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", c.name, code, resp)
		}
	}
	// Nothing should have been accepted.
	var list struct {
		Jobs []queueJob `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/queue", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected posts left %d job(s) in the log", len(list.Jobs))
	}
}

func TestQueueDashboardSection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario server-side")
	}
	ts, _ := newTestServer(t)
	resp, code := postQueue(t, ts.URL, "?seed=7", quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /api/queue: status %d (%s)", code, resp["error"])
	}
	var job queueJob
	if err := json.Unmarshal(resp["job"], &job); err != nil {
		t.Fatal(err)
	}
	if job.Seed != 7 {
		t.Errorf("seed override not applied: %+v", job)
	}
	waitForJob(t, ts.URL, job.ID)
	page, _ := getBody(t, ts.URL+"/")
	for _, want := range []string{"Scenario queue", "queued-quickstart", "assertions held"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, refreshMeta) {
		t.Error("dashboard auto-refreshes with nothing in flight")
	}
}

const refreshMeta = "http-equiv=refresh"

// serveDirect answers one request in-process, against a server whose
// queue worker was never started.
func serveDirect(s *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// The dashboard refreshes exactly while a job is queued or running.
func TestDashboardRefreshesWhileQueueBusy(t *testing.T) {
	s := newServer(t)
	job := &queueJob{ID: 1, Scenario: "pending", Status: "queued"}
	s.queue.jobs = append(s.queue.jobs, job)
	for _, status := range []string{"queued", "running", "done", "failed"} {
		job.Status = status
		page := serveDirect(s, http.MethodGet, "/", "").Body.String()
		busy := status == "queued" || status == "running"
		if got := strings.Contains(page, refreshMeta); got != busy {
			t.Errorf("job %s: refresh meta present = %v, want %v", status, got, busy)
		}
	}
}

// A full queue answers 429 and accepts nothing.
func TestQueueFullIs429(t *testing.T) {
	s := newServer(t)
	s.queue.specs = map[int]scenario.Spec{}
	s.queue.ch = make(chan int, queueDepth)
	for i := 0; i < queueDepth; i++ {
		s.queue.ch <- i + 1
	}
	rec := serveDirect(s, http.MethodPost, "/api/queue", quickSpec)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if jobs := s.queueJobs(); len(jobs) != 0 {
		t.Errorf("rejected post left %d job(s) in the log", len(jobs))
	}
	if len(s.queue.ch) != queueDepth {
		t.Errorf("queue holds %d ids, want %d", len(s.queue.ch), queueDepth)
	}
}

// The empty job log must not render a queue section or an error.
func TestQueueListEmpty(t *testing.T) {
	ts, _ := newTestServer(t)
	var list struct {
		Jobs []queueJob `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/api/queue", &list); code != http.StatusOK {
		t.Fatalf("GET /api/queue: status %d", code)
	}
	if len(list.Jobs) != 0 {
		t.Errorf("expected empty job log, got %v", list.Jobs)
	}
	page, _ := getBody(t, ts.URL+"/")
	if strings.Contains(page, "Scenario queue") {
		t.Error("dashboard renders a queue section with no jobs")
	}
}
