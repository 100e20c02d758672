package experiments

import (
	"os"
	"os/exec"
	"strings"
)

// RunMeta identifies what produced a run when it is archived into the
// experiment store.
type RunMeta struct {
	// Commit is the VCS revision under test.
	Commit string
}

// CaptureRunMeta resolves archival provenance: the commit comes from
// IBCBENCH_COMMIT when set (CI pins it to the exact revision under
// test, which also keeps archival working on detached or shallow
// checkouts), falling back to `git rev-parse`; an empty commit is fine
// — the store keys runs by content, not provenance.
func CaptureRunMeta() RunMeta {
	if c := os.Getenv("IBCBENCH_COMMIT"); c != "" {
		return RunMeta{Commit: c}
	}
	var m RunMeta
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}
