package denom

// The trace operations the transfer rules once ran on parsed traces. The
// rules now read denom strings (CutHop); these stay as the model that
// FuzzDenomTrace checks them against.

// HasPrefix reports whether the trace's outermost hop is (port, channel)
// — i.e. the token entered the current chain through that channel.
func (t Trace) HasPrefix(port, channel string) bool {
	return len(t.Hops) > 0 && t.Hops[0].Port == port && t.Hops[0].Channel == channel
}

// AddPrefix returns the trace with one more outermost hop, the receiving
// chain's view of an incoming token that is moving away from its source.
func (t Trace) AddPrefix(port, channel string) Trace {
	hops := make([]Hop, 0, len(t.Hops)+1)
	hops = append(hops, Hop{Port: port, Channel: channel})
	hops = append(hops, t.Hops...)
	return Trace{Hops: hops, Base: t.Base}
}

// TrimPrefix returns the trace with the outermost hop removed, the
// receiving chain's view of a token returning toward its source. Calling
// it on a native trace returns the trace unchanged; a trace it makes
// native has nil Hops, as Parse gives it.
func (t Trace) TrimPrefix() Trace {
	if len(t.Hops) <= 1 {
		return Trace{Base: t.Base}
	}
	return Trace{Hops: t.Hops[1:], Base: t.Base}
}
