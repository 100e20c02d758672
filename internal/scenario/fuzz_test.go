package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecRoundTrip: any input Parse accepts encodes to canonical bytes
// that parse back and re-encode to the same bytes. Seeds are the
// catalogue's built-in specs, the golden specs, the benchmark's
// workload specs and the paper figures' kinds of cell: a LAN sweep cell
// stopped at a height, a total spread over windows and an injected
// block.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, raw := range []string{
		`{"name":"relayer","topology":{"preset":"two"},"regions":"lan","deploy":{"relayersPerEdge":2},"workload":{"rate":140,"windows":50},"assertions":["token-conservation"],"untilHeight":50}`,
		`{"name":"burst","topology":{"preset":"two"},"deploy":{},"workload":{"windows":16,"transfers":5000},"until":"45m0s"}`,
		`{"name":"ws","topology":{"preset":"two"},"deploy":{},"workload":{"transfers":100000,"inject":true,"timeoutBlocks":60},"assertions":["token-conservation"],"until":"23m20s"}`,
	} {
		if _, err := Parse([]byte(raw)); err != nil {
			f.Fatalf("seed %s: %v", raw, err)
		}
		f.Add([]byte(raw))
	}
	for _, s := range []Spec{quickstartSpec(), hubSpec(), meshSpec(), pfmrouteSpec(), roundtripSpec(), failoverSpec(), plaintimeoutSpec(), timeoutstormSpec(), timeoutproofsSpec()} {
		data, err := Encode(s)
		if err != nil {
			f.Fatalf("encode %s: %v", s.Name, err)
		}
		f.Add(data)
	}
	for _, pattern := range []string{"testdata/*.json", "../../bench/workloads/*.json"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed specs match %s: %v", pattern, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("canonical bytes do not parse: %v\n%s", err, enc)
		}
		again, err := Encode(back)
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encode⇄parse is not canonical:\n--- first ---\n%s\n--- second ---\n%s", enc, again)
		}
	})
}
