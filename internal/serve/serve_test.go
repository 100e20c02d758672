package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ibcbench/internal/store"
)

// newServer builds a server over a fresh store closed at cleanup.
func newServer(t *testing.T) *Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return New(st)
}

func newTestServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	s := newServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s.st
}

func doc(topology string, seed int, bps float64) string {
	return fmt.Sprintf(`{"config": {"topology": %q, "seed": %d, "rate": 5}, "topo": {"Sample": {"BlocksPerSec": %v}, "Throughput": {"Mean": 1.0}}}`,
		topology, seed, bps)
}

type ingestResp struct {
	Meta    store.Meta `json:"meta"`
	Created bool       `json:"created"`
}

func postIngest(t *testing.T, base, query, payload string) (ingestResp, int) {
	t.Helper()
	resp, err := http.Post(base+"/api/ingest?"+query, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /api/ingest: %v", err)
	}
	defer resp.Body.Close()
	var out ingestResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	return out, resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp.StatusCode
}

// TestIngestTrendAndIdempotency is the core acceptance path: three runs
// posted through /api/ingest, /api/trend returns them as a monotone run
// sequence with the right values, and re-posting the same document is
// idempotent.
func TestIngestTrendAndIdempotency(t *testing.T) {
	ts, _ := newTestServer(t)
	values := []float64{0.8, 0.85, 0.9}
	var first ingestResp
	for i, v := range values {
		out, code := postIngest(t, ts.URL,
			fmt.Sprintf("kind=experiment&commit=c%d&time=2026-08-0%dT00:00:00Z", i, i+1),
			doc("hub:3", 1, v))
		if code != http.StatusCreated || !out.Created {
			t.Fatalf("ingest %d: status=%d created=%v", i, code, out.Created)
		}
		if i == 0 {
			first = out
		}
	}

	// Same payload, same timestamp → same run, nothing created.
	again, code := postIngest(t, ts.URL, "kind=experiment&commit=c0&time=2026-08-01T00:00:00Z", doc("hub:3", 1, 0.8))
	if code != http.StatusOK || again.Created {
		t.Fatalf("re-ingest: status=%d created=%v, want 200/false", code, again.Created)
	}
	if again.Meta.ID != first.Meta.ID || again.Meta.Seq != first.Meta.Seq {
		t.Fatalf("re-ingest changed identity: %+v vs %+v", again.Meta, first.Meta)
	}

	var trend struct {
		Metric string             `json:"metric"`
		Points []store.TrendPoint `json:"points"`
	}
	if code := getJSON(t, ts.URL+"/api/trend?metric=topo.Sample.BlocksPerSec", &trend); code != http.StatusOK {
		t.Fatalf("trend status=%d", code)
	}
	if len(trend.Points) != 3 {
		t.Fatalf("trend points = %d, want 3", len(trend.Points))
	}
	for i, p := range trend.Points {
		if p.Value != values[i] {
			t.Errorf("point %d value = %v, want %v", i, p.Value, values[i])
		}
		if i > 0 && p.Seq <= trend.Points[i-1].Seq {
			t.Errorf("run sequence not monotone: seq[%d]=%d after %d", i, p.Seq, trend.Points[i-1].Seq)
		}
		if !p.Compatible {
			t.Errorf("point %d unexpectedly config-incompatible", i)
		}
	}

	var runs struct {
		Runs []store.Meta `json:"runs"`
	}
	getJSON(t, ts.URL+"/api/runs", &runs)
	if len(runs.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs.Runs))
	}
}

// TestRunEndpointsRoundTrip checks drill-down JSON and verbatim payload
// bytes.
func TestRunEndpointsRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := doc("hub:3", 7, 0.9)
	out, _ := postIngest(t, ts.URL, "time=2026-08-01T00:00:00Z", payload)

	var run struct {
		Meta    store.Meta      `json:"meta"`
		Payload json.RawMessage `json:"payload"`
	}
	if code := getJSON(t, ts.URL+"/api/runs/"+out.Meta.ID, &run); code != http.StatusOK {
		t.Fatalf("run status=%d", code)
	}
	if run.Meta.Seed != 7 {
		t.Errorf("seed = %d, want 7", run.Meta.Seed)
	}
	raw, code := getBody(t, ts.URL+"/api/runs/"+out.Meta.ID+"/payload")
	if code != http.StatusOK || raw != payload {
		t.Errorf("payload round-trip mismatch (status %d)", code)
	}
	if _, code := getBody(t, ts.URL+"/api/runs/nope"); code != http.StatusNotFound {
		t.Errorf("missing run status = %d, want 404", code)
	}
}

// TestRegressionEndpointFlagsDegradedRun: a synthetically degraded run
// against a healthy rolling median is flagged over HTTP.
func TestRegressionEndpointFlagsDegradedRun(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 5; i++ {
		postIngest(t, ts.URL, fmt.Sprintf("time=2026-08-01T00:00:0%dZ", i), doc("hub:3", 1, 100+float64(i)))
	}
	postIngest(t, ts.URL, "time=2026-08-02T00:00:00Z", doc("hub:3", 1, 60))

	var reg store.Regression
	if code := getJSON(t, ts.URL+"/api/regression?metric=topo.Sample.BlocksPerSec&k=5&tolerance=10", &reg); code != http.StatusOK {
		t.Fatalf("regression status=%d", code)
	}
	if !reg.Flagged {
		t.Fatalf("degraded run not flagged: %+v", reg)
	}
	if reg.Window != 5 {
		t.Errorf("window = %d, want 5", reg.Window)
	}
	if reg.DeltaPct > -35 {
		t.Errorf("delta = %.1f%%, want about -41%%", reg.DeltaPct)
	}
}

// TestDashboardRendersInlineSVG: the dashboard HTML embeds trend charts
// as inline SVG and ships zero external assets.
func TestDashboardRendersInlineSVG(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		postIngest(t, ts.URL, fmt.Sprintf("time=2026-08-01T00:00:0%dZ", i), doc("hub:3", 1, 0.8+float64(i)/10))
	}
	// One config-mismatch run: must be annotated, not hidden.
	postIngest(t, ts.URL, "time=2026-08-02T00:00:00Z", doc("mesh:4", 1, 2.5))

	page, code := getBody(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("dashboard status=%d", code)
	}
	if !strings.Contains(page, "<svg") {
		t.Fatal("dashboard has no inline SVG chart")
	}
	if !strings.Contains(page, "config differs from latest") {
		t.Error("config-mismatch run not annotated in chart tooltips")
	}
	if !strings.Contains(page, "config header differing") {
		t.Error("config-mismatch note missing")
	}
	for _, external := range []string{"http://", "https://", "<script", "<link", "src=", "@import"} {
		if strings.Contains(page, external) {
			t.Errorf("dashboard references an external asset: %q", external)
		}
	}
	// Explicit metric query charts that metric.
	page, _ = getBody(t, ts.URL+"/?metric=topo.Throughput.Mean")
	if !strings.Contains(page, "topo.Throughput.Mean") || !strings.Contains(page, "<svg") {
		t.Error("explicit ?metric= not charted")
	}
}

// TestRunPageRendersMetricsSnapshot: the per-run page shows the config
// header and any obs registry snapshot nested in the payload.
func TestRunPageRendersMetricsSnapshot(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := `{"config": {"topology": "hub:3", "seed": 3}, "topo": {"Sample": {"BlocksPerSec": 0.8, "Metrics": {"Counters": [{"Name": "blocks_committed", "Value": 42}], "Gauges": [], "Histograms": [{"Name": "commit_latency_ms", "Count": 10, "Sum": 120, "Min": 5, "Max": 30}]}}}}`
	out, _ := postIngest(t, ts.URL, "time=2026-08-01T00:00:00Z", payload)

	page, code := getBody(t, ts.URL+"/runs/"+out.Meta.ID)
	if code != http.StatusOK {
		t.Fatalf("run page status=%d", code)
	}
	for _, want := range []string{"Config header", "topology", "hub:3", "Metrics registry", "blocks_committed", "42", "commit_latency_ms"} {
		if !strings.Contains(page, want) {
			t.Errorf("run page missing %q", want)
		}
	}
}

// TestTracePostValidatesAndBadges: traces are validated at ingest; the
// verdict badges the run on both API and dashboard, and invalid traces
// are kept for inspection.
func TestTracePostValidatesAndBadges(t *testing.T) {
	ts, _ := newTestServer(t)
	good, _ := postIngest(t, ts.URL, "kind=trace&time=2026-08-01T00:00:00Z", doc("hub:3", 1, 0.8))
	bad, _ := postIngest(t, ts.URL, "kind=trace&time=2026-08-01T00:00:01Z", doc("hub:3", 2, 0.8))

	post := func(id, trace string) map[string]any {
		resp, err := http.Post(ts.URL+"/api/runs/"+id+"/trace", "application/json", bytes.NewReader([]byte(trace)))
		if err != nil {
			t.Fatalf("POST trace: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	validTrace := `{"traceEvents": [{"name": "block", "ph": "X", "ts": 1, "dur": 2}]}`
	if out := post(good.Meta.ID, validTrace); out["trace_valid"] != true {
		t.Fatalf("valid trace rejected: %v", out)
	}
	out := post(bad.Meta.ID, `{"traceEvents": [{"name": "block", "ph": "?", "ts": 1}]}`)
	if out["trace_valid"] != false {
		t.Fatalf("invalid trace not badged: %v", out)
	}
	if _, ok := out["trace_error"].(string); !ok {
		t.Error("invalid trace response missing trace_error")
	}

	// The invalid trace is still downloadable.
	if _, code := getBody(t, ts.URL+"/api/runs/"+bad.Meta.ID+"/trace"); code != http.StatusOK {
		t.Error("invalid trace not stored")
	}
	page, _ := getBody(t, ts.URL+"/")
	if !strings.Contains(page, ">valid<") || !strings.Contains(page, ">invalid<") {
		t.Error("dashboard missing trace validity badges")
	}
	runPage, _ := getBody(t, ts.URL+"/runs/"+good.Meta.ID)
	if !strings.Contains(runPage, ">valid<") || !strings.Contains(runPage, "trace.json") {
		t.Error("run page missing trace link/badge")
	}
}

// TestDiffEndpointReportsConfigMismatch: the stored diff mirrors
// `ibcbench -diff` — metric deltas plus field-level config mismatch.
func TestDiffEndpointReportsConfigMismatch(t *testing.T) {
	ts, _ := newTestServer(t)
	a, _ := postIngest(t, ts.URL, "time=2026-08-01T00:00:00Z", doc("hub:3", 1, 0.8))
	b, _ := postIngest(t, ts.URL, "time=2026-08-01T00:00:01Z", doc("hub:6", 1, 1.6))

	var diff struct {
		ConfigMismatch []string  `json:"config_mismatch"`
		Changed        []diffRow `json:"changed"`
	}
	code := getJSON(t, fmt.Sprintf("%s/api/diff?a=%s&b=%s", ts.URL, a.Meta.ID, b.Meta.ID), &diff)
	if code != http.StatusOK {
		t.Fatalf("diff status=%d", code)
	}
	foundCfg := false
	for _, row := range diff.ConfigMismatch {
		if strings.Contains(row, "topology") && strings.Contains(row, "hub:3") && strings.Contains(row, "hub:6") {
			foundCfg = true
		}
	}
	if !foundCfg {
		t.Errorf("config mismatch rows missing topology change: %v", diff.ConfigMismatch)
	}
	foundDelta := false
	for _, row := range diff.Changed {
		if row.Path == "topo.Sample.BlocksPerSec" && row.DeltaPct != nil && *row.DeltaPct == 100 {
			foundDelta = true
		}
	}
	if !foundDelta {
		t.Errorf("changed rows missing BlocksPerSec +100%%: %+v", diff.Changed)
	}
}
