package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func key(seq uint64) PacketKey {
	return PacketKey{SrcChain: "a", Channel: "channel-0", Sequence: seq}
}

func TestRecordFirstWriteWins(t *testing.T) {
	tr := NewTracker()
	tr.Record(key(1), StepRecvBuild, 10*time.Second)
	tr.Record(key(1), StepRecvBuild, 20*time.Second) // redundant relayer
	at, ok := tr.StepTime(key(1), StepRecvBuild)
	if !ok || at != 10*time.Second {
		t.Fatalf("at = %v ok=%v", at, ok)
	}
	if _, ok := tr.StepTime(key(1), StepAckBuild); ok {
		t.Fatal("unset step reported")
	}
	if _, ok := tr.StepTime(key(9), StepAckBuild); ok {
		t.Fatal("unknown packet reported")
	}
}

func TestStatusClassification(t *testing.T) {
	tr := NewTracker()
	tr.AddRequested(5)
	// seq 1: completed; seq 2: partial; seq 3: initiated; seq 4: broadcast
	// only; the fifth request never reached the chain.
	for seq := uint64(1); seq <= 4; seq++ {
		tr.Record(key(seq), StepTransferBroadcast, 0)
	}
	tr.Record(key(1), StepTransferConfirmation, 1)
	tr.Record(key(1), StepRecvConfirmation, 2)
	tr.Record(key(1), StepAckConfirmation, 3)
	tr.Record(key(2), StepTransferConfirmation, 1)
	tr.Record(key(2), StepRecvConfirmation, 2)
	tr.Record(key(3), StepTransferConfirmation, 1)
	tr.Record(key(4), StepTransferBroadcast, 1)
	counts := tr.CompletionCounts()
	if counts[StatusCompleted] != 1 || counts[StatusPartial] != 1 ||
		counts[StatusInitiated] != 1 || counts[StatusNotCommitted] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if tr.StatusOf(key(9)) != StatusNotCommitted {
		t.Fatal("unknown packet not NotCommitted")
	}
}

// A forwarded hop packet is tracked on its outgoing link but was never
// requested there, so it must not stand in for a request that never
// committed.
func TestHopPacketsDoNotHideUncommitted(t *testing.T) {
	tr := NewTracker()
	tr.AddRequested(3)
	for seq := uint64(1); seq <= 2; seq++ {
		tr.Record(key(seq), StepTransferBroadcast, 1)
		tr.Record(key(seq), StepTransferConfirmation, 2)
	}
	hop := PacketKey{SrcChain: "b", Channel: "channel-1", Sequence: 1}
	tr.Record(hop, StepTransferExtraction, 2)
	tr.Record(hop, StepTransferConfirmation, 2)
	counts := tr.CompletionCounts()
	if counts[StatusInitiated] != 3 || counts[StatusNotCommitted] != 1 {
		t.Fatalf("counts = %v, want 3 initiated and 1 not committed", counts)
	}
}

// Recording a step of a packet whose chunk exists allocates nothing.
func TestTrackerRecordAllocs(t *testing.T) {
	tr := NewTracker()
	tr.Record(key(1), StepTransferBroadcast, 1)
	step := 0
	got := testing.AllocsPerRun(100, func() {
		step++
		tr.Record(key(uint64(step%200)), Step(step%NumSteps+1), time.Duration(step))
	})
	if got != 0 {
		t.Fatalf("Record allocated %.1f times per call", got)
	}
}

func TestCompletionTimesAndWindow(t *testing.T) {
	tr := NewTracker()
	tr.Record(key(1), StepTransferBroadcast, 5*time.Second)
	tr.Record(key(1), StepAckConfirmation, 30*time.Second)
	tr.Record(key(2), StepTransferBroadcast, 5*time.Second)
	tr.Record(key(2), StepAckConfirmation, 60*time.Second)
	lats := tr.CompletionTimes()
	if len(lats) != 2 || lats[0] != 25*time.Second || lats[1] != 55*time.Second {
		t.Fatalf("lats = %v", lats)
	}
	first, last, ok := tr.StepSpan(StepAckConfirmation)
	if !ok || first != 30*time.Second || last != 60*time.Second {
		t.Fatalf("span = %v..%v", first, last)
	}
	if _, _, ok := tr.StepSpan(StepRecvBuild); ok {
		t.Fatal("empty step had a span")
	}
}

func TestStepNamesCoverAll13(t *testing.T) {
	seen := map[string]bool{}
	for s := Step(1); int(s) <= NumSteps; s++ {
		name := s.String()
		if seen[name] {
			t.Fatalf("duplicate step name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != 13 {
		t.Fatalf("steps = %d, want 13", len(seen))
	}
	if Step(99).String() == "" {
		t.Fatal("out-of-range name empty")
	}
}

func TestSummarize(t *testing.T) {
	d := Summarize(nil)
	if d.N != 0 {
		t.Fatal("empty dist")
	}
	d = Summarize([]float64{4, 1, 3, 2})
	if d.Min != 1 || d.Max != 4 || d.Median != 2.5 || d.Mean != 2.5 {
		t.Fatalf("dist = %+v", d)
	}
	if d.Q1 >= d.Median || d.Q3 <= d.Median {
		t.Fatalf("quartiles = %+v", d)
	}
	single := Summarize([]float64{7})
	if single.Median != 7 || single.Std != 0 {
		t.Fatalf("single = %+v", single)
	}
}

// Property: Summarize is order-invariant and bounds hold.
func TestSummarizeProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if x != x { // NaN
				return true
			}
		}
		d := Summarize(xs)
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		d2 := Summarize(rev)
		return d == d2 && d.Min <= d.Q1 && d.Q1 <= d.Median &&
			d.Median <= d.Q3 && d.Q3 <= d.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := Series{Name: "hop-1"}
	if s.Len() != 0 || s.Max() != 0 {
		t.Fatalf("empty series: len=%d max=%v", s.Len(), s.Max())
	}
	s.Add(2 * time.Second)
	s.Add(5 * time.Second)
	s.Add(3 * time.Second)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Max() != 5*time.Second {
		t.Fatalf("max = %v", s.Max())
	}
}
