package metrics

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// mapTracker is the map-keyed tracker the packet table replaced, kept as
// the model FuzzTracker diffs it against: one heap record per packet in
// a map, sorted copies for every ordered read. Its not-committed count
// carries the same hop-packet rule as Tracker's.
type mapTracker struct {
	packets   map[PacketKey]*mapRecord
	requested int
}

type mapRecord struct {
	at  [NumSteps]time.Duration
	set [NumSteps]bool
}

func (t *mapTracker) Record(key PacketKey, step Step, at time.Duration) {
	i := int(step) - 1
	if i < 0 || i >= NumSteps {
		return
	}
	rec, ok := t.packets[key]
	if !ok {
		rec = &mapRecord{}
		t.packets[key] = rec
	}
	if rec.set[i] && rec.at[i] <= at {
		return
	}
	rec.set[i] = true
	rec.at[i] = at
}

func (t *mapTracker) StepTime(key PacketKey, step Step) (time.Duration, bool) {
	rec, ok := t.packets[key]
	if !ok || !rec.set[step-1] {
		return 0, false
	}
	return rec.at[step-1], true
}

func (t *mapTracker) Keys() []PacketKey {
	out := make([]PacketKey, 0, len(t.packets))
	for key := range t.packets {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.SrcChain != b.SrcChain {
			return a.SrcChain < b.SrcChain
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		return a.Sequence < b.Sequence
	})
	return out
}

func (t *mapTracker) StatusOf(key PacketKey) Status {
	rec, ok := t.packets[key]
	switch {
	case !ok:
		return StatusNotCommitted
	case rec.set[StepAckConfirmation-1]:
		return StatusCompleted
	case rec.set[StepRecvConfirmation-1]:
		return StatusPartial
	case rec.set[StepTransferConfirmation-1]:
		return StatusInitiated
	default:
		return StatusNotCommitted
	}
}

func (t *mapTracker) CompletionCounts() map[Status]int {
	out := map[Status]int{
		StatusCompleted: 0, StatusPartial: 0,
		StatusInitiated: 0, StatusNotCommitted: 0,
	}
	broadcast := 0
	for key, rec := range t.packets {
		out[t.StatusOf(key)]++
		if rec.set[StepTransferBroadcast-1] {
			broadcast++
		}
	}
	if t.requested > broadcast {
		out[StatusNotCommitted] += t.requested - broadcast
	}
	return out
}

func (t *mapTracker) CompletionTimes() []time.Duration {
	var out []time.Duration
	for _, rec := range t.packets {
		if rec.set[StepTransferBroadcast-1] && rec.set[StepAckConfirmation-1] {
			out = append(out, rec.at[StepAckConfirmation-1]-rec.at[StepTransferBroadcast-1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *mapTracker) StepCompletionCurve(step Step) []time.Duration {
	var out []time.Duration
	for _, rec := range t.packets {
		if rec.set[step-1] {
			out = append(out, rec.at[step-1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// countWalked reports how many packets Walk visits: those with any
// recorded step.
func countWalked(t *Tracker) int {
	n := 0
	t.Walk(func(PacketKey, *Lifecycle) { n++ })
	return n
}

// FuzzTracker drives the packet table and the map model with the same
// Record calls and compares every read. The first byte is the requested
// count; each following 4-byte op names a (chain, channel) of two chains
// × three channels whose string order differs from their numeric order,
// a sequence in 0–600 (crossing chunk edges), a step in 0–14 (so the
// out-of-range steps are exercised) and a time in 0–7 s (so zero and
// equal times are common).
func FuzzTracker(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 0, 1, 0, 13, 2})
	f.Add([]byte{0, 5, 0, 255, 1, 5, 0, 255, 13, 0, 2, 88, 0, 14, 7, 3, 2, 0, 6, 0})
	f.Add([]byte{9, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 13, 4, 1, 0, 13, 3, 4, 0, 1, 0})
	chains := [...]string{"ibc-0", "ibc-1"}
	channels := [...]string{"channel-2", "channel-10", "channel-0"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		got := NewTracker()
		want := &mapTracker{packets: make(map[PacketKey]*mapRecord)}
		got.AddRequested(int(data[0]))
		want.requested = int(data[0])
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			key := PacketKey{
				SrcChain: chains[ops[0]%6/3],
				Channel:  channels[ops[0]%3],
				Sequence: (uint64(ops[1])<<8 | uint64(ops[2])) % 601,
			}
			step := Step(ops[3] % 15)
			at := time.Duration(ops[3]/15%8) * time.Second
			got.Record(key, step, at)
			want.Record(key, step, at)
			for s := Step(1); int(s) <= NumSteps; s++ {
				g, gok := got.StepTime(key, s)
				w, wok := want.StepTime(key, s)
				if g != w || gok != wok {
					t.Fatalf("after Record(%v, %d, %v): StepTime(%d) = %v, %v; model %v, %v", key, step, at, s, g, gok, w, wok)
				}
			}
			if _, ok := got.StepTime(key, step); (step < 1 || int(step) > NumSteps) && ok {
				t.Fatalf("StepTime(%v, %d) reported an out-of-range step", key, step)
			}
			if g, w := got.StatusOf(key), want.StatusOf(key); g != w {
				t.Fatalf("after Record(%v, %d, %v): StatusOf = %v, model %v", key, step, at, g, w)
			}
			if g, w := countWalked(got), len(want.packets); g != w {
				t.Fatalf("after Record(%v, %d, %v): Walk visits %d, model %d", key, step, at, g, w)
			}
		}
		var walked []PacketKey
		got.Walk(func(key PacketKey, rec *Lifecycle) {
			walked = append(walked, key)
			for s := Step(1); int(s) <= NumSteps; s++ {
				g, gok := rec.StepTime(s)
				w, wok := want.StepTime(key, s)
				if g != w || gok != wok {
					t.Fatalf("walk at %v: step %d = %v, %v; model %v, %v", key, s, g, gok, w, wok)
				}
			}
		})
		if w := want.Keys(); !reflect.DeepEqual(walked, w) && len(walked)+len(w) > 0 {
			t.Fatalf("walk order %v, model %v", walked, w)
		}
		if g, w := got.CompletionCounts(), want.CompletionCounts(); !reflect.DeepEqual(g, w) {
			t.Fatalf("CompletionCounts = %v, model %v", g, w)
		}
		if g, w := got.CompletionTimes(), want.CompletionTimes(); !reflect.DeepEqual(g, w) {
			t.Fatalf("CompletionTimes = %v, model %v", g, w)
		}
		for s := Step(1); int(s) <= NumSteps; s++ {
			curve := want.StepCompletionCurve(s)
			if g := got.StepCompletionCurve(s); !reflect.DeepEqual(g, curve) {
				t.Fatalf("StepCompletionCurve(%d) = %v, model %v", s, g, curve)
			}
			first, last, ok := got.StepSpan(s)
			if ok != (len(curve) > 0) || ok && (first != curve[0] || last != curve[len(curve)-1]) {
				t.Fatalf("StepSpan(%d) = %v..%v, %v; model curve %v", s, first, last, ok, curve)
			}
		}
	})
}
