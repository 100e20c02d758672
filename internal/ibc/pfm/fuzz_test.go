package pfm

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
)

// FuzzParseMemo: ParseMemo never panics, accepts only a forward hop with
// a port, a channel and a receiver, wraps every refusal in
// ErrBadForwardMemo, and gives what encoding/json alone gives
// (decodeMemo): the same metadata, ok and error, whether it read the memo
// in place or handed it over. Memo writes what json.Marshal writes, and
// ParseMemo reads it back, in place when it is ASCII with no \u escape
// and no negative timeout.
// Seeds are TestMemoRoundTripAndValidation's memos, a forward hop with no
// receiver, and memos the in-place reader must hand over: foreign field
// order, whitespace, escapes, unknown and duplicate fields, numbers out of
// range and nesting past its bound.
func FuzzParseMemo(f *testing.F) {
	seed := &ForwardMetadata{
		Receiver: "carol", Port: "transfer", Channel: "channel-1",
		Next: &ForwardMetadata{Receiver: "dave", Port: "transfer", Channel: "channel-2"},
	}
	deep := &ForwardMetadata{Receiver: "r", Port: "p", Channel: "c"}
	for range maxMemoHops {
		deep = &ForwardMetadata{Receiver: "r", Port: "p", Channel: "c", Next: deep}
	}
	for _, memo := range []string{
		Memo(seed), "", "just a note",
		`{"forward":{"receiver":"x"}}`,
		`{"forward":{"port":"transfer","channel":"channel-1"}}`,
		Memo(deep),
		`{"forward":{"port":"transfer","receiver":"carol","channel":"channel-1"}}`,
		`{"forward": {"receiver":"carol","port":"transfer","channel":"channel-1"}}`,
		`{"forward":{"receiver":"ca\"rol\\","port":"trans\/fer","channel":"channel-1"}}`,
		`{"forward":{"receiver":"carol","port":"transfer","channel":"channel-1"}}`,
		`{"forward":{"receiver":"carol","port":"transfer","channel":"channel-1","extra":1}}`,
		`{"forward":{"receiver":"carol","port":"transfer","channel":"channel-1"},"forward":null}`,
		`{"forward":{"receiver":"carol","port":"transfer","channel":"channel-1","timeout_blocks":9223372036854775808}}`,
		`{"forward":{"receiver":"carol","port":"transfer","channel":"channel-1","timeout_blocks":-3}}`,
		`{"forward":{"receiver":"carol","port":"transfer","channel":"channel-1","timeout_blocks":07}}`,
		`{"forward":{"receiver":"carol","port":"transfer","channel":"channel-1","next":null}}`,
		`{"forward":{"receiver":"","port":"transfer","channel":"channel-1"}}`,
		`{"forward":null}`,
		`{"Forward":{"receiver":"carol","port":"transfer","channel":"channel-1"}}`,
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
		want, wantOK, wantErr := decodeMemo([]byte(memo))
		if !reflect.DeepEqual(got, want) || ok != wantOK || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ParseMemo(%q) = %+v, %v, %v; encoding/json gives %+v, %v, %v", memo, got, ok, err, want, wantOK, wantErr)
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
		raw, err := json.Marshal(memoWrapper{Forward: fm})
		if err != nil || Memo(fm) != string(raw) {
			t.Fatalf("Memo(%+v) = %s, json.Marshal writes %s (%v)", fm, Memo(fm), raw, err)
		}
		back, ok, err := ParseMemo(raw)
		if err != nil || !ok || !reflect.DeepEqual(back, fm) {
			t.Fatalf("ParseMemo(Memo(%+v)) = %+v, ok=%v, err=%v", fm, back, ok, err)
		}
		ascii := strings.IndexFunc(string(raw), func(r rune) bool { return r >= utf8.RuneSelf }) < 0
		if _, read := readMemo(raw); !read && ascii && timeout >= 0 && !strings.Contains(string(raw), `\u`) {
			t.Fatalf("Memo(%+v) = %s was not read in place", fm, raw)
		}
	})
}

// FuzzInFlightCodec: the in-flight record's stored bytes are the bytes
// json.Marshal writes for it, for any packet (nil, empty or arbitrary
// data; any strings, valid UTF-8 or not; either timeout set or not), any
// coin and either receive leg.
func FuzzInFlightCodec(f *testing.F) {
	f.Add(uint64(7), "transfer", "channel-0", "transfer", "channel-1", []byte(`{"denom":"uatom","amount":1}`), false, int64(120), int64(0), "transfer/channel-0/uatom", uint64(5), true)
	f.Add(uint64(0), "", "", "", "", []byte(nil), true, int64(-1), int64(-1), "", uint64(0), false)
	f.Add(uint64(1<<63), "p<&>", "c \"\\", "\xff", "\x00\x1f", []byte{}, false, int64(0), int64(time.Hour), "d\xe2\x80", uint64(1<<64-1), false)
	f.Fuzz(func(t *testing.T, seq uint64, srcPort, srcChan, dstPort, dstChan string, data []byte, nilData bool, timeoutHeight, timeoutNS int64, denom string, amount uint64, unescrowed bool) {
		if nilData {
			data = nil
		}
		rec := inFlight{
			Original: ibc.Packet{Sequence: seq, SourcePort: srcPort, SourceChannel: srcChan, DestPort: dstPort, DestChannel: dstChan,
				Data: data, TimeoutHeight: timeoutHeight, TimeoutTimestamp: time.Duration(timeoutNS)},
			Coin:       app.Coin{Denom: denom, Amount: amount},
			Unescrowed: unescrowed,
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendInFlight([]byte("x"), &rec); string(got[1:]) != string(want) || got[0] != 'x' {
			t.Fatalf("appendInFlight(%+v) = %s, json.Marshal writes %s", rec, got, want)
		}
	})
}
