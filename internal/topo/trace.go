// Trace synthesis: folding a finished deployment into the observability
// sinks. Packet lifecycles are reconstructed from the per-edge trackers
// at flush time — the hot path records nothing per packet — and emitted
// as Chrome async spans so one transfer reads as a single trace across
// both (or, forwarded, all) chains. Fault injections and failover
// takeovers become instants, and component counters are folded into the
// registry so the snapshot rides along inside the run result.
package topo

import (
	"fmt"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/obs"
)

// packetTraceID derives a stable nonzero async-trace identifier from a
// packet key (FNV-64a over chain, channel and sequence). The low bit is
// forced on so 0 stays free as the "no override" sentinel.
func packetTraceID(key metrics.PacketKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	hash := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h *= prime64 // NUL separator so ("ab","c") != ("a","bc")
	}
	hash(key.SrcChain)
	hash(key.Channel)
	for shift := 0; shift < 64; shift += 8 {
		h ^= (key.Sequence >> shift) & 0xff
		h *= prime64
	}
	return h | 1
}

// foldObs is the single flush-time entry point, called from Scenario.Run
// once the virtual clock has stopped (and after the chaos log landed in
// the result, so fault instants can be emitted from it).
func foldObs(d *Deployment, res *Result, runs []*routeRun) {
	tr := d.Obs.Tracer
	emitPacketSpans(d, tr, forwardedOverrides(d, runs))
	emitFaultInstants(tr, res)
	emitFailoverInstants(d, tr)
	foldMetrics(d)
	res.Metrics = d.Obs.Reg.Snapshot()
}

// forwardedOverrides maps every middleware-emitted hop packet of a
// forwarded route to its origin packet's trace ID, walking the same
// NextHop chain routeReport uses for latency attribution. With the map
// in hand, hop 2+ spans (and timeout-unwind refund legs, which keep the
// same hop keys) join the origin's async trace instead of starting their
// own.
func forwardedOverrides(d *Deployment, runs []*routeRun) map[metrics.PacketKey]uint64 {
	overrides := make(map[metrics.PacketKey]uint64)
	for _, rr := range runs {
		if !rr.route.Forwarded || len(rr.legs) == 0 {
			continue
		}
		path := rr.route.Path
		keys := rr.legs[0].PacketKeys()
		origin := make([]uint64, len(keys))
		for i, key := range keys {
			origin[i] = packetTraceID(key)
		}
		for j := 1; j+1 < len(path); j++ {
			mid := d.Chains[path[j]]
			inLink, _ := d.LinkBetween(path[j-1], path[j])
			if inLink == nil {
				break
			}
			inChan := inLink.ChannelFrom(path[j])
			next := make([]metrics.PacketKey, len(keys))
			for i, key := range keys {
				if origin[i] == 0 {
					continue
				}
				outChan, outSeq, ok := mid.Forward.NextHop(inChan, key.Sequence)
				if !ok {
					origin[i] = 0
					continue
				}
				next[i] = metrics.PacketKey{SrcChain: mid.ID, Channel: outChan, Sequence: outSeq}
				overrides[next[i]] = origin[i]
			}
			keys = next
		}
	}
	return overrides
}

// emitPacketSpans reconstructs each tracked packet's 13-step lifecycle
// as one async span on its source chain's track: a begin at the first
// recorded step, one instant per step, an end at the last. Links and
// the tracker's walk go in deterministic order, so same-seed traces are
// byte-identical.
func emitPacketSpans(d *Deployment, tr *obs.Tracer, overrides map[metrics.PacketKey]uint64) {
	namePkt := tr.Name("pkt")
	var stepNames [metrics.NumSteps]obs.NameID
	for i := range stepNames {
		stepNames[i] = tr.Name(metrics.Step(i + 1).String())
	}
	for _, l := range d.Links {
		l.Tracker.Walk(func(key metrics.PacketKey, rec *metrics.Lifecycle) {
			id := overrides[key]
			if id == 0 {
				id = packetTraceID(key)
			}
			track := tr.Track("chain/" + key.SrcChain)
			begun := false
			var last time.Duration
			for i := range stepNames {
				at, ok := rec.StepTime(metrics.Step(i + 1))
				if !ok {
					continue
				}
				if !begun {
					tr.AsyncBegin(id, track, namePkt, at)
					begun = true
				}
				tr.AsyncInstant(id, track, stepNames[i], at)
				last = at
			}
			tr.AsyncEnd(id, track, namePkt, last)
		})
	}
}

// emitFaultInstants marks every applied chaos fault on a dedicated track.
func emitFaultInstants(tr *obs.Tracer, res *Result) {
	if len(res.Faults) == 0 {
		return
	}
	track := tr.Track("chaos")
	for _, f := range res.Faults {
		tr.Instant(track, tr.Name(f.Desc), f.At)
	}
}

// emitFailoverInstants marks standby takeovers and folds outage windows
// into a downtime histogram.
func emitFailoverInstants(d *Deployment, tr *obs.Tracer) {
	for _, l := range d.Links {
		if l.Failover == nil {
			continue
		}
		times := l.Failover.TakeoverTimes()
		if len(times) > 0 {
			track := tr.Track("failover")
			name := tr.Name(fmt.Sprintf("takeover edge %d", l.Index))
			for _, at := range times {
				tr.Instant(track, name, at)
			}
		}
		down := d.Obs.Reg.Histogram(fmt.Sprintf("failover/edge%d/downtime_seconds", l.Index))
		for _, w := range l.Failover.Report().Downtime.Samples {
			down.Observe(w.Seconds())
		}
	}
}

// foldMetrics copies each component's internal counters into the
// registry so one snapshot carries the whole run.
func foldMetrics(d *Deployment) {
	reg := d.Obs.Reg
	for _, c := range d.Chains {
		p := "chain/" + c.ID + "/"
		vs := c.Engine.VoteCache().Stats()
		reg.SetCounter(p+"votesig_verifications", vs.Verifications)
		reg.SetCounter(p+"votesig_hits", vs.Hits)
		reg.SetCounter(p+"votesig_rejected", vs.Rejected)
		reg.SetCounter(p+"height", uint64(c.Store.Height()))
		reg.SetCounter(p+"empty_blocks", c.Engine.EmptyBlocks())
		reg.SetCounter(p+"rounds", c.Engine.TotalRounds())
		reg.SetCounter(p+"mempool_added", c.Pool.Added())
		reg.SetCounter(p+"mempool_rejected", c.Pool.Rejected())
		reg.SetCounter(p+"eventindex_scans", c.Events.ScanCount())
	}
	for _, l := range d.Links {
		for i := 0; i < l.relayerCount(); i++ {
			r := l.relayerAt(i)
			st := r.Stats()
			p := "relayer/" + r.Name() + "/"
			reg.SetCounter(p+"recv_delivered", st.RecvDelivered)
			reg.SetCounter(p+"acks_delivered", st.AcksDelivered)
			reg.SetCounter(p+"timeouts_delivered", st.TimeoutsDelivered)
			reg.SetCounter(p+"redundant_errors", st.RedundantErrors)
			reg.SetCounter(p+"seq_mismatch_errors", st.SeqMismatchErrors)
			reg.SetCounter(p+"frames_lost", st.FramesLost)
			reg.SetCounter(p+"txs_submitted", st.TxsSubmitted)
			reg.SetCounter(p+"txs_failed", st.TxsFailed)
			reg.SetCounter(p+"retries", st.Retries)
		}
	}
	reg.SetCounter("net/sent", d.Net.Sent())
	reg.SetCounter("net/dropped", d.Net.Dropped())
	reg.SetCounter("sim/events_processed", d.TotalProcessed())
}
