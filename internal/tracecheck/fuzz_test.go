package tracecheck

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ibcbench/internal/obs"
)

// FuzzTracecheck feeds Validate arbitrary bytes: it must return, never
// panic. An accepted document has events and phase counts that add up to
// them; a located violation points inside the input. The seeds are
// valid traces — the exporter's own output and this package's fixture —
// and truncations of them, which cut events, strings and numbers apart.
func FuzzTracecheck(f *testing.F) {
	tr := obs.NewTracer()
	track := tr.Track("chain/ibc-0")
	tr.CompleteArg(track, tr.Name("block"), 100*time.Millisecond, 150*time.Millisecond, 3)
	tr.Instant(track, tr.Name("fault"), 200*time.Millisecond)
	tr.AsyncBegin(0xabc, track, tr.Name("pkt"), 210*time.Millisecond)
	tr.AsyncInstant(0xabc, track, tr.Name("Recv build"), 215*time.Millisecond)
	tr.AsyncEnd(0xabc, track, tr.Name("pkt"), 220*time.Millisecond)
	var exported bytes.Buffer
	if err := tr.WriteChrome(&exported); err != nil {
		f.Fatal(err)
	}
	for _, doc := range [][]byte{exported.Bytes(), []byte(validDoc)} {
		if _, err := Validate(doc); err != nil {
			f.Fatalf("seed trace is invalid: %v", err)
		}
		for k := 0; k <= 8; k++ {
			f.Add(doc[:len(doc)*k/8])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stats, err := Validate(data)
		if err == nil {
			sum := 0
			for _, n := range stats.Phases { // order-free: a sum
				sum += n
			}
			if stats.Events == 0 || sum != stats.Events {
				t.Fatalf("accepted with %d events and phase counts %v", stats.Events, stats.Phases)
			}
			return
		}
		var verr *Error
		if errors.As(err, &verr) && verr.Index >= 0 && (verr.Offset < 0 || verr.Offset > int64(len(data))) {
			t.Fatalf("violation at offset %d of a %d-byte input: %v", verr.Offset, len(data), err)
		}
	})
}
