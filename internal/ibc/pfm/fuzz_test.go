package pfm

import (
	"errors"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzParseMemo: ParseMemo never panics, accepts only a forward hop with
// a port, a channel and a receiver, wraps every refusal in
// ErrBadForwardMemo, and reads back whatever Memo writes for such a hop.
// Seeds are TestMemoRoundTripAndValidation's memos plus a forward hop
// with no receiver.
func FuzzParseMemo(f *testing.F) {
	seed := &ForwardMetadata{
		Receiver: "carol", Port: "transfer", Channel: "channel-1",
		Next: &ForwardMetadata{Receiver: "dave", Port: "transfer", Channel: "channel-2"},
	}
	for _, memo := range []string{
		Memo(seed), "", "just a note",
		`{"forward":{"receiver":"x"}}`,
		`{"forward":{"port":"transfer","channel":"channel-1"}}`,
	} {
		f.Add(memo, "carol", "transfer", "channel-1", int64(0), "dave")
	}
	f.Fuzz(func(t *testing.T, memo, receiver, port, channel string, timeout int64, next string) {
		got, ok, err := ParseMemo([]byte(memo))
		if err != nil && !errors.Is(err, ErrBadForwardMemo) {
			t.Fatalf("ParseMemo(%q): error %v does not wrap ErrBadForwardMemo", memo, err)
		}
		if ok && (err != nil || got.Port == "" || got.Channel == "" || got.Receiver == "") {
			t.Fatalf("ParseMemo(%q) accepted %+v (err %v)", memo, got, err)
		}

		// encoding/json writes invalid UTF-8 as U+FFFD, so only valid
		// strings can survive a round trip.
		for _, s := range []string{receiver, port, channel, next} {
			if !utf8.ValidString(s) {
				return
			}
		}
		if receiver == "" || port == "" || channel == "" {
			return
		}
		fm := &ForwardMetadata{Receiver: receiver, Port: port, Channel: channel, TimeoutBlocks: timeout}
		if next != "" {
			fm.Next = &ForwardMetadata{Receiver: next, Port: port, Channel: channel}
		}
		back, ok, err := ParseMemo([]byte(Memo(fm)))
		if err != nil || !ok || !reflect.DeepEqual(back, fm) {
			t.Fatalf("ParseMemo(Memo(%+v)) = %+v, ok=%v, err=%v", fm, back, ok, err)
		}
	})
}
