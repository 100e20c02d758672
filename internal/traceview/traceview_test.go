package traceview_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/obs"
	"ibcbench/internal/topo"
	"ibcbench/internal/traceview"
)

// forwardedScenario is the instrumented forwarded-route run the
// analytics tests share: a 3-chain line with per-edge load plus a
// forwarded A->B->C route, so the trace carries both nested sync spans
// and multi-hop lifecycle flows.
func forwardedScenario(o *obs.Obs) topo.Scenario {
	return topo.Scenario{
		Name:     "line3-forward-analytics",
		Topology: topo.Line(3),
		Deploy:   topo.DeployConfig{Obs: o},
		Rate:     2,
		Windows:  2,
		Routes:   []topo.Route{{Path: []int{0, 1, 2}, Transfers: 2, Forwarded: true}},
	}
}

// runForwarded executes the scenario and returns the exported Chrome
// document plus the events parsed back out of it.
func runForwarded(t *testing.T, seed int64) ([]traceview.Event, []byte) {
	t.Helper()
	o := obs.New()
	if _, _, err := forwardedScenario(o).RunDeployed(seed); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := o.Tracer.WriteChrome(&doc); err != nil {
		t.Fatal(err)
	}
	events, err := traceview.FromChrome(doc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return events, doc.Bytes()
}

// analyze renders all four analysis documents for one event stream.
func analyze(t *testing.T, events []traceview.Event) (flameJSON, flameSVG, critJSON, critSVG []byte) {
	t.Helper()
	root := traceview.Flame(events)
	cp := traceview.CriticalPath(events)
	var fs, cs bytes.Buffer
	if err := traceview.FlameSVG(&fs, root); err != nil {
		t.Fatal(err)
	}
	if err := traceview.CritPathSVG(&cs, cp); err != nil {
		t.Fatal(err)
	}
	return traceview.FlameJSON(root), fs.Bytes(), traceview.CritPathJSON(cp), cs.Bytes()
}

// TestAnalysisDeterminism pins the tentpole contract: two same-seed
// runs produce byte-identical flame and critical-path documents, JSON
// and SVG alike.
func TestAnalysisDeterminism(t *testing.T) {
	ev1, _ := runForwarded(t, 23)
	ev2, _ := runForwarded(t, 23)
	fj1, fs1, cj1, cs1 := analyze(t, ev1)
	fj2, fs2, cj2, cs2 := analyze(t, ev2)
	for _, c := range []struct {
		name string
		a, b []byte
	}{
		{"flame JSON", fj1, fj2},
		{"flame SVG", fs1, fs2},
		{"critpath JSON", cj1, cj2},
		{"critpath SVG", cs1, cs2},
	} {
		if !bytes.Equal(c.a, c.b) {
			t.Errorf("same-seed %s differs (%d vs %d bytes)", c.name, len(c.a), len(c.b))
		}
		if len(c.a) == 0 {
			t.Errorf("%s is empty", c.name)
		}
	}
}

// TestForwardedAttribution pins the acceptance criterion: on a stored
// forwarded-route trace, the critical path attributes at least 95% of
// every packet's end-to-end latency to lifecycle steps, with the
// residual reported explicitly, and the forwarded hop appears as a
// distinct hop-1 group.
func TestForwardedAttribution(t *testing.T) {
	events, _ := runForwarded(t, 23)
	cp := traceview.CriticalPath(events)
	if cp.Flows == 0 || cp.StepEvents == 0 {
		t.Fatalf("no lifecycle flows in trace: %+v", cp)
	}
	if cp.WorstFlowShare < 0.95 {
		t.Fatalf("worst flow attributes only %.3f of end-to-end, want >= 0.95", cp.WorstFlowShare)
	}
	if cp.AttributedShare < 0.95 {
		t.Fatalf("aggregate attribution %.3f, want >= 0.95", cp.AttributedShare)
	}
	if cp.Attributed+cp.Residual != cp.TotalEndToEnd {
		t.Fatalf("accounting leak: attributed %v + residual %v != total %v", cp.Attributed, cp.Residual, cp.TotalEndToEnd)
	}
	if cp.Residual < 0 {
		t.Fatalf("negative residual %v", cp.Residual)
	}
	hop1 := false
	for _, g := range cp.Groups {
		if g.Hop == 1 {
			hop1 = true
		}
		var groupTotal time.Duration
		for _, st := range g.Steps {
			if st.Count <= 0 || st.P99 < st.P50 || st.Max < st.P99 {
				t.Fatalf("degenerate step stat in %s h%d: %+v", g.Edge, g.Hop, st)
			}
			groupTotal += st.Total
		}
		if groupTotal != g.Total {
			t.Fatalf("group %s h%d total %v != step sum %v", g.Edge, g.Hop, g.Total, groupTotal)
		}
	}
	if !hop1 {
		t.Fatalf("forwarded route produced no hop-1 group: %+v", cp.Groups)
	}
}

// TestFlameTreeInvariants: container totals equal their children's
// sum, self time never exceeds total, and rendered documents carry the
// expected structure markers.
func TestFlameTreeInvariants(t *testing.T) {
	events, _ := runForwarded(t, 23)
	root := traceview.Flame(events)
	if root.Name != "run" || root.Total <= 0 {
		t.Fatalf("bad root: %+v", root)
	}
	var walk func(n *traceview.FlameNode)
	walk = func(n *traceview.FlameNode) {
		var kids time.Duration
		for _, c := range n.Children {
			kids += c.Total
			walk(c)
		}
		if n.Count == 0 && n.Total != kids {
			t.Fatalf("container %q total %v != children sum %v", n.Name, n.Total, kids)
		}
		if n.Self < 0 || n.Self > n.Total {
			t.Fatalf("node %q self %v outside [0, %v]", n.Name, n.Self, n.Total)
		}
		for i := 1; i < len(n.Children); i++ {
			a, b := n.Children[i-1], n.Children[i]
			if a.Total < b.Total || (a.Total == b.Total && a.Name > b.Name) {
				t.Fatalf("children of %q not in canonical order: %q before %q", n.Name, a.Name, b.Name)
			}
		}
	}
	walk(root)
	subsystems := map[string]bool{}
	for _, c := range root.Children {
		subsystems[c.Name] = true
	}
	if !subsystems["chain"] || !subsystems["relayer"] {
		t.Fatalf("expected chain and relayer subsystems, got %v", subsystems)
	}
	var svg bytes.Buffer
	if err := traceview.FlameSVG(&svg, root); err != nil {
		t.Fatal(err)
	}
	out := svg.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "<title>run") {
		t.Fatalf("flame SVG missing structure: %.120s", out)
	}

	// Known spans, recorded in scrambled order: the tree depends on the
	// event multiset only.
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	span := func(track, name string, start, end int) traceview.Event {
		return traceview.Event{Phase: 'X', Track: track, Name: name, TS: ms(start), Dur: ms(end - start)}
	}
	find := func(n *traceview.FlameNode, path ...string) *traceview.FlameNode {
		for _, name := range path {
			var next *traceview.FlameNode
			for _, c := range n.Children {
				if c.Name == name {
					next = c
				}
			}
			if next == nil {
				t.Fatalf("no node %v under %q", path, n.Name)
			}
			n = next
		}
		return n
	}
	tree := traceview.Flame([]traceview.Event{
		span("relayer/r0", "scan", 2000, 2010),
		// exec ends with its block; verify starts with it: both nest.
		span("chain/ibc-0", "exec", 60, 100),
		span("chain/ibc-0", "verify", 0, 10),
		span("chain/ibc-0", "block", 0, 100),
		span("chain/ibc-1", "block", 200, 250),
	})
	block := find(tree, "chain", "block")
	if block.Count != 2 || block.Total != ms(150) || block.Self != ms(100) {
		t.Fatalf("block = %+v, want count 2, total 150ms, self 100ms (100-40-10 nested + 50)", block)
	}
	if exec := find(block, "exec"); exec.Total != ms(40) || exec.Self != ms(40) {
		t.Fatalf("exec = %+v, want total = self = 40ms", exec)
	}
	if verify := find(block, "verify"); verify.Count != 1 || verify.Total != ms(10) {
		t.Fatalf("equal-start child not nested under its parent: %+v", verify)
	}
	// Equal totals order by name at every level, never by recording
	// order.
	tie := traceview.Flame([]traceview.Event{
		span("relayer/r0", "scan", 2000, 2010),
		span("chain/ibc-1", "exec", 1000, 1010),
		span("chain/ibc-0", "block", 0, 10),
	})
	var got []string
	for _, sub := range tie.Children {
		for _, c := range sub.Children {
			got = append(got, sub.Name+"/"+c.Name)
		}
	}
	if want := "chain/block chain/exec relayer/scan"; strings.Join(got, " ") != want {
		t.Fatalf("tie order = %v, want %s", got, want)
	}
	// The table's row cap: header + N rows, 0 = unlimited (run, chain,
	// block, exec, relayer, scan).
	lines := func(top int) int {
		var buf bytes.Buffer
		traceview.WriteFlame(&buf, tie, top)
		return strings.Count(buf.String(), "\n")
	}
	if n := lines(2); n != 3 {
		t.Fatalf("top=2 wrote %d lines, want 3", n)
	}
	if n := lines(0); n != 7 {
		t.Fatalf("top=0 wrote %d lines, want 7", n)
	}
}

// TestCriticalPathSynthetic checks the attribution math on a
// hand-built two-hop flow where every delta is known.
func TestCriticalPathSynthetic(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []traceview.Event{
		{TS: ms(0), Phase: 'b', Track: "chain/A", Name: "pkt", ID: "0x1"},
		{TS: ms(10), Phase: 'n', Track: "chain/A", Name: "Transfer broadcast", ID: "0x1"},
		{TS: ms(40), Phase: 'n', Track: "chain/B", Name: "Packet relayed", ID: "0x1"},
		{TS: ms(100), Phase: 'n', Track: "chain/B", Name: "Packet relayed", ID: "0x1"},
		{TS: ms(100), Phase: 'e', Track: "chain/A", Name: "pkt", ID: "0x1"},
	}
	cp := traceview.CriticalPath(events)
	if cp.Flows != 1 || cp.StepEvents != 3 {
		t.Fatalf("flows %d steps %d, want 1/3", cp.Flows, cp.StepEvents)
	}
	if cp.TotalEndToEnd != ms(100) || cp.Attributed != ms(100) || cp.Residual != 0 {
		t.Fatalf("accounting: total %v attributed %v residual %v", cp.TotalEndToEnd, cp.Attributed, cp.Residual)
	}
	if cp.WorstFlowShare != 1.0 || cp.AttributedShare != 1.0 {
		t.Fatalf("shares: worst %v aggregate %v", cp.WorstFlowShare, cp.AttributedShare)
	}
	if len(cp.Groups) != 2 {
		t.Fatalf("groups: %+v", cp.Groups)
	}
	g0, g1 := cp.Groups[0], cp.Groups[1]
	if g0.Edge != "chain/A" || g0.Hop != 0 || g0.Total != ms(10) {
		t.Fatalf("hop-0 group: %+v", g0)
	}
	if g1.Edge != "chain/B" || g1.Hop != 1 || g1.Total != ms(90) {
		t.Fatalf("hop-1 group: %+v", g1)
	}
	relayed := g1.Steps[0]
	if relayed.Count != 2 || relayed.Total != ms(90) || relayed.Max != ms(60) {
		t.Fatalf("relayed step: %+v", relayed)
	}
	// The 60ms second relay dwarfs every other delta, so it is the
	// flow's dominant step.
	if relayed.Dominant != 1 {
		t.Fatalf("dominant count: %+v", relayed)
	}
	if relayed.Share != 0.9 {
		t.Fatalf("share %v, want 0.9", relayed.Share)
	}
}
