package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/sim"
)

// fakeTarget records applied faults as strings.
type fakeTarget struct {
	log []string
}

func (f *fakeTarget) PartitionEdge(e, r int) { f.log = append(f.log, fmt.Sprintf("part:%d/%d", e, r)) }
func (f *fakeTarget) HealEdge(e, r int)      { f.log = append(f.log, fmt.Sprintf("heal:%d/%d", e, r)) }
func (f *fakeTarget) SetEdgeExtraLatency(e int, lat time.Duration) {
	f.log = append(f.log, fmt.Sprintf("spike:%d/%v", e, lat))
}
func (f *fakeTarget) SetEdgeExtraDrop(e int, drop float64) {
	f.log = append(f.log, fmt.Sprintf("burst:%d/%.2f", e, drop))
}
func (f *fakeTarget) PauseRelayer(e, r int) { f.log = append(f.log, fmt.Sprintf("pause:%d/%d", e, r)) }
func (f *fakeTarget) ResumeRelayer(e, r int) {
	f.log = append(f.log, fmt.Sprintf("resume:%d/%d", e, r))
}

// TestInjectAppliesInTimeOrder: events fire at their virtual times in
// (At, declaration) order regardless of declaration order, and the log
// records each application.
func TestInjectAppliesInTimeOrder(t *testing.T) {
	target := &fakeTarget{}
	events := []Event{
		{At: 30 * time.Second, Kind: HealLink, Edge: 0, Relayer: -1},
		{At: 10 * time.Second, Kind: PartitionLink, Edge: 0, Relayer: -1},
		{At: 20 * time.Second, Kind: LatencySpike, Edge: 1, ExtraLatency: 50 * time.Millisecond},
		{At: 20 * time.Second, Kind: RelayerPause, Edge: 1, Relayer: 1},
		{At: 40 * time.Second, Kind: RelayerResume, Edge: 1, Relayer: 1},
		{At: 40 * time.Second, Kind: DropBurst, Edge: 1, ExtraDrop: 0.5},
	}
	s := sim.NewScheduler()
	var log []Applied
	Inject(s, target, events, &log)
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"part:0/-1",
		"spike:1/50ms",
		"pause:1/1",
		"heal:0/-1",
		"resume:1/1",
		"burst:1/0.50",
	}
	if len(target.log) != len(want) {
		t.Fatalf("applied %d faults, want %d: %v", len(target.log), len(want), target.log)
	}
	for i, w := range want {
		if target.log[i] != w {
			t.Fatalf("fault %d = %s, want %s (full: %v)", i, target.log[i], w, target.log)
		}
	}
	if len(log) != len(want) {
		t.Fatalf("log has %d entries", len(log))
	}
	if log[0].At != 10*time.Second || log[0].Event.Kind != PartitionLink {
		t.Fatalf("log[0] = %+v", log[0])
	}
	for _, e := range log {
		if e.Desc == "" {
			t.Fatalf("empty description for %+v", e.Event)
		}
	}
}

func TestStandbyOrdinalAllowedForPartition(t *testing.T) {
	// PartitionLink passes its relayer ordinal through: -1 for the whole
	// link, the last ordinal for the standby, each logged by what it
	// severed.
	target := &fakeTarget{}
	events := []Event{
		{Kind: PartitionLink, Edge: 0, Relayer: -1},
		{Kind: PartitionLink, Edge: 0, Relayer: 1},
	}
	s := sim.NewScheduler()
	var log []Applied
	Inject(s, target, events, &log)
	if err := s.RunUntil(s.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(target.log, " "); got != "part:0/-1 part:0/1" {
		t.Fatalf("applied %s", got)
	}
	if log[0].Desc != "partition edge 0 (whole link)" || log[1].Desc != "partition edge 0 (relayer 1 host)" {
		t.Fatalf("descriptions %q / %q", log[0].Desc, log[1].Desc)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		PartitionLink: "partition", HealLink: "heal",
		LatencySpike: "latency-spike", DropBurst: "drop-burst",
		RelayerPause: "relayer-pause", RelayerResume: "relayer-resume",
	} {
		if k.String() != want {
			t.Fatalf("%d = %s, want %s", int(k), k, want)
		}
		if b, err := k.MarshalText(); err != nil || string(b) != want {
			t.Fatalf("marshal %s: %s %v", want, b, err)
		}
	}
}
