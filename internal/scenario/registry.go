// The named-scenario registry: the table of built-in specs (builtin.go),
// runnable as a suite from the CLI (`ibcbench suite`) and lintable in CI
// (every registered spec must parse, encode, round-trip and compile).
package scenario

import (
	"fmt"
	"sort"
)

// Entry is one registered scenario.
type Entry struct {
	// Spec is the scenario itself; Spec.Name keys the registry.
	Spec Spec
	// Desc is the one-line catalogue description.
	Desc string
	// Short marks the spec cheap enough for smoke suites
	// (`ibcbench suite -short` and the CI suite step).
	Short bool
}

// Lookup fetches a registered scenario by name.
func Lookup(name string) (Entry, bool) {
	for _, e := range builtins {
		if e.Spec.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists registered scenarios in sorted order.
func Names() []string {
	out := make([]string, len(builtins))
	for i, e := range builtins {
		out[i] = e.Spec.Name
	}
	sort.Strings(out)
	return out
}

// Lint verifies one registered scenario the way CI's registry-lint step
// does: the spec validates, compiles, and survives an encode⇄parse
// round trip byte-identically.
func Lint(name string) error {
	e, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("scenario: unknown scenario %q", name)
	}
	if _, err := Compile(e.Spec); err != nil {
		return fmt.Errorf("scenario %q: compile: %w", name, err)
	}
	enc, err := Encode(e.Spec)
	if err != nil {
		return fmt.Errorf("scenario %q: encode: %w", name, err)
	}
	back, err := Parse(enc)
	if err != nil {
		return fmt.Errorf("scenario %q: re-parse: %w", name, err)
	}
	enc2, err := Encode(back)
	if err != nil {
		return fmt.Errorf("scenario %q: re-encode: %w", name, err)
	}
	if string(enc) != string(enc2) {
		return fmt.Errorf("scenario %q: encode⇄parse round trip is not canonical", name)
	}
	return nil
}
