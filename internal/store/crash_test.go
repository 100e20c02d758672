package store

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// crashChildEnv names the store directory a re-executed test binary
// ingests into until it is killed.
const crashChildEnv = "IBCBENCH_STORE_CRASH_CHILD"

// crashDoc is the payload of the run with the given seed; the parent
// knows every payload the child can have written.
func crashDoc(seed int64) []byte { return doc("hub:3", seed, 0.8) }

// TestStoreSurvivesKill re-executes the test binary as a child that
// ingests runs in a loop, kills it with SIGKILL mid-run, and reopens the
// store. Every indexed run must read back byte-identical, leftovers of
// the interrupted write (an orphan payload directory, a temp file) must
// be harmless, and the next ingest must land. Three kill rounds share
// one directory, so each child also starts from a recovered store.
func TestStoreSurvivesKill(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		ingestUntilKilled(dir)
		return
	}
	dir := t.TempDir()
	idx := filepath.Join(dir, "index.jsonl")
	indexed := 0
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStoreSurvivesKill$")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Kill once the child has journaled a few dozen more runs.
		deadline := time.Now().Add(30 * time.Second)
		for {
			data, _ := os.ReadFile(idx)
			if bytes.Count(data, []byte("\n")) >= indexed+40 {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("round %d: child journaled %d runs in 30s", round, bytes.Count(data, []byte("\n")))
			}
			time.Sleep(time.Millisecond)
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		s, err := Open(dir)
		if err != nil {
			t.Fatalf("round %d: reopen after kill: %v", round, err)
		}
		runs := s.Runs()
		if len(runs) < indexed+40 {
			t.Fatalf("round %d: %d runs after reopen, want at least %d", round, len(runs), indexed+40)
		}
		for i, m := range runs {
			_, payload, err := s.Get(m.ID)
			if err != nil {
				t.Fatalf("round %d: run %d: %v", round, i, err)
			}
			if m.Seq != int64(i+1) || m.Seed != int64(i) || !bytes.Equal(payload, crashDoc(m.Seed)) {
				t.Fatalf("round %d: run %d (seq %d, seed %d) does not read back as written", round, i, m.Seq, m.Seed)
			}
		}
		indexed = len(runs)

		// Plant what an interrupted write leaves behind on top of what the
		// kill left: a temp file beside the next run's payload and an
		// orphan payload directory. Neither may get in the next ingest's way.
		next := int64(indexed)
		nextID := RunID("experiment", "c", next, fmt.Sprintf("t%d", next), map[string]any{"topology": "hub:3", "seed": float64(next), "rate": float64(5)}, crashDoc(next))
		if err := os.MkdirAll(filepath.Join(dir, "runs", nextID), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "runs", nextID, "payload.json.tmp123"), []byte(`{"torn`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "runs", "00orphan00000000"), 0o755); err != nil {
			t.Fatal(err)
		}
		m, created, err := s.Ingest("experiment", "c", fmt.Sprintf("t%d", next), crashDoc(next))
		if err != nil || !created || m.ID != nextID {
			t.Fatalf("round %d: ingest after recovery: %v created=%v id %s want %s", round, err, created, m.ID, nextID)
		}
		if _, payload, err := s.Get(m.ID); err != nil || !bytes.Equal(payload, crashDoc(next)) {
			t.Fatalf("round %d: post-recovery run does not read back: %v", round, err)
		}
		s.Close()
		indexed++
	}
}

// ingestUntilKilled is the child's side: reopen the store and ingest the
// next seeds until it is killed, or for a minute if the parent dies
// first.
func ingestUntilKilled(dir string) {
	s, err := Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	deadline := time.Now().Add(time.Minute)
	for seed := int64(len(s.Runs())); time.Now().Before(deadline); seed++ {
		if _, _, err := s.Ingest("experiment", "c", fmt.Sprintf("t%d", seed), crashDoc(seed)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	os.Exit(0)
}
