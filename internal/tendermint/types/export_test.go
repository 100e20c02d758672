package types

import "ibcbench/internal/valkey"

// ByAddress looks a validator up; nil if absent.
func (vs *ValidatorSet) ByAddress(a valkey.Address) *Validator {
	if i, ok := vs.byAddr[a]; ok {
		return vs.Validators[i]
	}
	return nil
}
