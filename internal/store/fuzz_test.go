package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreReplay opens a store over arbitrary index.jsonl bytes. Open
// must never panic. When it succeeds, what it left on disk is a prefix
// of the input made of whole lines that each parse as a run, and a
// second Open sees the same runs. Seeds: a real journal, the same with a
// torn tail, and with a corrupt line in the middle.
func FuzzStoreReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		m, _, err := s.Ingest("experiment", "c", "t", doc("hub:3", i, 0.8))
		if err != nil {
			f.Fatal(err)
		}
		if i == 1 {
			if _, err := s.AttachTrace(m.ID, []byte(`{"traceEvents":[]}`), false); err != nil {
				f.Fatal(err)
			}
		}
	}
	s.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	f.Add(journal)
	f.Add(append(bytes.Clone(journal), `{"id":"deadbeef","seq":9,"kind":"exp`...))
	f.Add(bytes.Join([][]byte{lines[0], []byte("not json\n"), lines[1]}, nil))
	f.Add([]byte("\n\n{}\n"))

	// One directory serves every input: Open reads only the journal, and
	// a fresh directory per input would cost more than the replay.
	dir = f.TempDir()
	idx := filepath.Join(dir, "index.jsonl")
	f.Fuzz(func(t *testing.T, input []byte) {
		if err := os.WriteFile(idx, input, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := Open(dir)
		if err != nil {
			return
		}
		runs := first.Runs()
		first.Close()
		kept, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(input, kept) {
			t.Fatalf("journal after Open is not a prefix of the input:\n%q\nof\n%q", kept, input)
		}
		for _, line := range bytes.SplitAfter(kept, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var m Meta
			if line[len(line)-1] != '\n' || json.Unmarshal(line, &m) != nil || m.ID == "" {
				t.Fatalf("kept a line that is not a whole, parsable run: %q", line)
			}
		}
		second, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer second.Close()
		if again := second.Runs(); !reflect.DeepEqual(runs, again) {
			t.Fatalf("second Open sees different runs:\n%+v\nvs\n%+v", again, runs)
		}
	})
}
