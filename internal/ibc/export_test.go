package ibc

// MemoCap is the decode memo's bound, for the tests that fill it.
const MemoCap = memoCap

// MemoLen reports how many decoded objects the keeper remembers.
func (k *Keeper) MemoLen() int { return len(k.memo) }
