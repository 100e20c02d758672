package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecRoundTrip: any input Parse accepts encodes to canonical bytes
// that parse back and re-encode to the same bytes. Seeds are every
// registered spec, the golden specs and the benchmark's workload specs.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, name := range Names() {
		e, _ := Lookup(name)
		data, err := Encode(e.Spec)
		if err != nil {
			f.Fatalf("encode %s: %v", name, err)
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
