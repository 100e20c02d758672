// Package relayer implements a Hermes-style IBC relayer (§II-C, Fig. 4):
// a Supervisor subscribing to chain events, a Packet Command Worker
// scheduling per-block batches, Packet Workers pulling transaction data
// and building IBC messages, and Chain Endpoints submitting transactions.
//
// The model reproduces the paper's measured behaviours:
//   - block-batch processing: every step runs for all of a block's
//     messages before the next step starts (Fig. 12's staircase);
//   - serial RPC data pulls dominating latency (69% of transfer time);
//   - at most 100 messages per transaction;
//   - per-account sequence tracking with "account sequence mismatch"
//     recovery;
//   - uncoordinated multi-relayer redundancy: "packet messages are
//     redundant" failures when two relayers serve one channel (§IV-A);
//   - WebSocket "failed to collect events" frames leaving packets stuck
//     when the clear interval is zero (§V).
package relayer

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
	"ibcbench/internal/merkle"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/obs"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/rpc"
	"ibcbench/internal/tendermint/store"
)

// Config parameterizes one relayer instance. The Hermes processing model
// — batch cap, per-message build and parse costs, batch overhead and the
// confirmation poll — is the paper's calibration, read from simconf where
// it is used.
type Config struct {
	// Name distinguishes relayer instances (account names derive from it).
	Name string
	// ClearIntervalBlocks re-scans for missed packets every N source
	// blocks (0 disables clearing, the paper's stuck-packet setting).
	ClearIntervalBlocks int64
	// Tracker receives per-packet step events (may be nil).
	Tracker *metrics.Tracker
	// Obs attaches the run's observability sinks (nil = disabled): spans
	// for the scan -> build -> submit -> clear pipeline plus a backlog
	// histogram and retry counters.
	Obs *obs.Obs
}

const (
	// confirmAttempts bounds confirmation polling per transaction: a
	// minute of RelayerConfirmPollInterval polls.
	confirmAttempts = 120
	// fullNodeClientTimeout is how long the relayer waits on its own full
	// nodes: Hermes tolerates long query latencies against its local full
	// node, and the serial query queue regularly exceeds the primary
	// node's client timeout.
	fullNodeClientTimeout = 2 * time.Minute
)

// Stats aggregates the relayer's error and work counters.
type Stats struct {
	RecvDelivered     uint64
	AcksDelivered     uint64
	TimeoutsDelivered uint64
	RedundantErrors   uint64
	SeqMismatchErrors uint64
	FramesLost        uint64
	TxsSubmitted      uint64
	TxsFailed         uint64
	// Retries counts submission re-attempts (sequence-mismatch recovery
	// plus network backoff), before a batch is failed or released.
	Retries uint64
}

// endpoint is one Chain Endpoint (Fig. 4): the relayer's view of and
// submission pipeline into one chain.
type endpoint struct {
	chain    *chain.Chain
	rpc      *rpc.Server
	clientID string // client on this chain tracking the counterparty
	channel  string // this side's channel of the relayed link
	account  string

	seq     uint64
	seqInit bool

	// clientHeights tracks the counterparty heights this chain's client
	// has consensus states for (relayer-local, optimistically advanced at
	// submission and rolled back when the carrying transaction fails).
	clientHeights map[int64]bool

	height int64 // the latest height observed via events

	// packets are the ones sourced on this endpoint's channel: every
	// recv, ack and timeout the relayer builds for them is a transition
	// of their rows.
	packets packetTable

	missed []int64 // heights of this chain queued for the clearing pass
	// The ledger LostHeights reads: heights queued and not re-scanned,
	// pass queries in flight per height, and passes scheduled.
	uncleared map[int64]bool
	querying  map[int64]int
	passes    int

	outbox   []outMsg // built messages awaiting submission
	flushing bool     // guards the sequential submission loop
}

type outMsg struct {
	msg         app.Msg
	packet      *ibc.Packet // the event index's shared record
	proofHeight int64
	origin      int64 // the counterparty height of the event it was built from
}

// kind is what m does to its packet.
func (m outMsg) kind() msgKind {
	switch m.msg.(type) {
	case *ibc.MsgRecvPacket:
		return kindRecv
	case *ibc.MsgTimeout:
		return kindTimeout
	}
	return kindAck
}

// step is the broadcast step to record when the message is accepted: a
// timeout, like an ack, completes the packet on its source.
func (m outMsg) step() metrics.Step {
	if m.kind() == kindRecv {
		return metrics.StepRecvBroadcast
	}
	return metrics.StepAckBroadcast
}

// Relayer is one Hermes instance relaying both directions of a channel.
type Relayer struct {
	sched *sim.Scheduler
	rng   *sim.RNG
	cfg   Config
	host  netem.Host

	// cpu serializes the relayer's own processing (Hermes handles blocks
	// sequentially).
	cpu *sim.SerialResource

	a, b *endpoint

	// pullQueue serializes data pulls: Hermes issues its RPC queries one
	// at a time and waits for each response (§IV-B).
	pullQueue   []func(func())
	pullRunning bool

	// Batch-build freelists: the fresh-packet/ack staging slices live
	// only until the build closure consumes them, so steady-state
	// clearing passes reuse them instead of allocating per block.
	// clearSeen is the clear pass's height-dedupe scratch map, reused
	// likewise.
	pktBuf    [][]*ibc.Packet
	ackBuf    [][]*ibc.AckWrite
	clearSeen map[int64]bool

	stats   Stats
	stopped bool

	// tr + interned IDs for pipeline spans; backlog samples outbox depth
	// at each flush. All nil-safe when observability is disabled.
	tr         *obs.Tracer
	otrack     obs.TrackID
	nScan      obs.NameID
	nBuildRecv obs.NameID
	nBuildAck  obs.NameID
	nSubmit    obs.NameID
	nClear     obs.NameID
	backlog    *obs.Histogram
}

// New wires a relayer to a linked pair. Each relayer gets its own full
// node on each chain (the paper's one-relayer-per-machine deployment)
// and funded relayer accounts.
func New(sched *sim.Scheduler, rng *sim.RNG, cfg Config, pair *chain.Pair) *Relayer {
	r := &Relayer{
		sched: sched,
		// Derive a private nonce stream: submission nonces then depend
		// only on this relayer's own submit order, not on how draws from
		// a shared stream interleave across relayers.
		rng:  sim.NewRNG(rng.Int63()),
		cfg:  cfg,
		host: netem.Host("relayer/" + cfg.Name),
		cpu:  sim.NewSerialResource(sched),
	}
	if cfg.Obs != nil {
		r.tr = cfg.Obs.Tracer
		r.otrack = r.tr.Track("relayer/" + cfg.Name)
		r.nScan = r.tr.Name("scan")
		r.nBuildRecv = r.tr.Name("build-recv")
		r.nBuildAck = r.tr.Name("build-ack")
		r.nSubmit = r.tr.Name("submit")
		r.nClear = r.tr.Name("clear-pass")
		r.backlog = cfg.Obs.Reg.Histogram("relayer/" + cfg.Name + "/backlog")
	}
	acctA := cfg.Name + "-on-" + pair.A.ID
	acctB := cfg.Name + "-on-" + pair.B.ID
	pair.A.App.CreateAccount(acctA, app.Coin{Denom: "stake", Amount: 1 << 50})
	pair.B.App.CreateAccount(acctB, app.Coin{Denom: "stake", Amount: 1 << 50})
	r.a = &endpoint{chain: pair.A, rpc: pair.A.AddRPCNode(fullNodeClientTimeout), clientID: pair.ClientOnA, channel: pair.ChannelAB, account: acctA, clientHeights: make(map[int64]bool)}
	r.b = &endpoint{chain: pair.B, rpc: pair.B.AddRPCNode(fullNodeClientTimeout), clientID: pair.ClientOnB, channel: pair.ChannelBA, account: acctB, clientHeights: make(map[int64]bool)}
	return r
}

// Host reports the relayer's network address (for workload submission).
func (r *Relayer) Host() netem.Host { return r.host }

// Name reports the relayer's configured instance name.
func (r *Relayer) Name() string { return r.cfg.Name }

// Stats returns a copy of the error/work counters.
func (r *Relayer) Stats() Stats { return r.stats }

// EndpointRPC returns the relayer's full node on the given chain, used
// by the workload connector to submit transfers "via the relayer CLI".
func (r *Relayer) EndpointRPC(chainID string) *rpc.Server {
	if r.a.chain.ID == chainID {
		return r.a.rpc
	}
	return r.b.rpc
}

// Start subscribes to both chains (the Supervisor of Fig. 4).
func (r *Relayer) Start() {
	r.a.rpc.Subscribe(r.host, func(f *rpc.EventFrame) { r.onFrame(r.a, r.b, f) })
	r.b.rpc.Subscribe(r.host, func(f *rpc.EventFrame) { r.onFrame(r.b, r.a, f) })
}

// Stop makes the relayer ignore all future events (crash injection).
func (r *Relayer) Stop() { r.stopped = true }

// Resume restarts a stopped relayer. A clearing pass that came due
// while it was stopped did not run, so the heights still queued get a
// new one, as Hermes clears on start.
func (r *Relayer) Resume() {
	r.stopped = false
	for _, e := range [2]*endpoint{r.a, r.b} {
		if len(e.missed) > 0 && e.passes == 0 {
			r.scheduleClear(e, r.counterpartOf(e))
		}
	}
}

// Stopped reports whether the relayer is currently paused — a crashed
// process answers no health probes (failover supervisors ping this).
func (r *Relayer) Stopped() bool { return r.stopped }

// onFrame is the Supervisor receiving one block's events from src.
func (r *Relayer) onFrame(src, dst *endpoint, frame *rpc.EventFrame) {
	if r.stopped {
		return
	}
	if r.cfg.ClearIntervalBlocks > 0 && frame.Height > src.height+1 {
		// A height gap means whole frames never arrived — dropped by a
		// network partition, lost while the process was paused, or (for a
		// standby taking over mid-run) published before this relayer
		// subscribed. Queue every skipped height for the clearing pass;
		// the shared event index makes the re-scan one indexed query per
		// height instead of a per-relayer decode.
		for h := src.height + 1; h < frame.Height; h++ {
			src.queue(h)
		}
		r.scheduleClear(src, dst)
	}
	if frame.Height > src.height {
		src.height = frame.Height
	}
	if frame.Err == nil {
		r.processBlock(src, dst, frame.Events)
	} else {
		// "Failed to collect events": the block's packets are invisible.
		r.stats.FramesLost++
		if r.cfg.ClearIntervalBlocks > 0 {
			src.queue(frame.Height)
			r.scheduleClear(src, dst)
		}
	}
	// New destination-side heights unblock proof-height waits and may
	// expire packets.
	r.checkTimeouts(src, dst)
	r.tryFlush(src)
	r.tryFlush(dst)
}

// processBlock is the Packet Command Worker handling one block batch. It
// consumes the chain's shared event index: the per-channel packet records
// were decoded once at commit time, so co-located relayers never re-scan
// the block. The calibrated per-message parse cost is still charged in
// virtual time — Hermes pays it per instance — only the simulator's own
// redundant decode work is gone.
func (r *Relayer) processBlock(src, dst *endpoint, be *eventindex.BlockEvents) {
	// Message extraction: identify txs carrying work for our channel (on
	// a multi-channel chain, packets of other links are someone else's).
	var recvTxs, ackTxs []*eventindex.TxEvents
	for _, te := range be.Txs {
		if len(te.SendPackets(src.channel)) > 0 {
			recvTxs = append(recvTxs, te)
		}
		if len(te.Acks(src.channel)) > 0 {
			ackTxs = append(ackTxs, te)
		}
	}
	if len(recvTxs) == 0 && len(ackTxs) == 0 {
		return
	}
	parse := simconf.RelayerSchedulingOverheadPerBatch + time.Duration(be.MsgCount)*simconf.RelayerEventParseCostPerMsg
	r.cpu.Submit(parse, func() {
		now := r.sched.Now()
		// The scan span covers the charged parse service time.
		r.tr.CompleteArg(r.otrack, r.nScan, now-parse, now, uint64(be.MsgCount))
		// Record extraction + confirmation for every packet seen.
		for _, te := range recvTxs {
			for _, p := range te.SendPackets(src.channel) {
				key := r.keyOf(src, p)
				r.track(key, metrics.StepTransferExtraction, now)
				r.track(key, metrics.StepTransferConfirmation, now)
			}
		}
		for _, te := range ackTxs {
			for _, w := range te.Acks(src.channel) {
				dst.packets.row(w.Packet.Sequence).received()
				key := r.keyOf(dst, &w.Packet) // packet's source is the counterparty
				r.track(key, metrics.StepRecvExtraction, now)
				// The event subscription confirms commitment too; the
				// polling path below is a fallback (first write wins).
				r.track(key, metrics.StepRecvConfirmation, now)
			}
		}
		// Data pulls: one heavy query per tx, serial on the source RPC.
		for _, te := range recvTxs {
			r.pullTxData(src, te, func() { r.buildRecvBatch(src, dst, te) })
		}
		for _, te := range ackTxs {
			r.pullTxData(src, te, func() { r.buildAckBatch(src, dst, te) })
		}
	})
}

// pullTxData enqueues a heavy data-pull query on the relayer's serial
// pull queue (Hermes waits for each query response before issuing the
// next — §IV-B), retrying on timeouts. The response payload itself is
// already decoded in the event index; the pull pays the wire/service
// cost and fn consumes the indexed records.
func (r *Relayer) pullTxData(src *endpoint, te *eventindex.TxEvents, fn func()) {
	r.pullQueue = append(r.pullQueue, func(done func()) { r.doPull(src, 0, te, fn, done) })
	r.runPulls()
}

func (r *Relayer) runPulls() {
	if r.pullRunning || len(r.pullQueue) == 0 {
		return
	}
	r.pullRunning = true
	job := r.pullQueue[0]
	r.pullQueue = r.pullQueue[1:]
	job(func() {
		r.pullRunning = false
		r.runPulls()
	})
}

func (r *Relayer) doPull(src *endpoint, attempt int, te *eventindex.TxEvents, fn func(), done func()) {
	if r.stopped || attempt > 10 {
		done()
		return
	}
	src.rpc.QueryTxData(r.host, te.Info.Tx.Hash(), func(_ *store.TxInfo, err error) {
		if r.stopped {
			done()
			return
		}
		if err != nil {
			r.sched.After(simconf.RelayerConfirmPollInterval, func() { r.doPull(src, attempt+1, te, fn, done) })
			return
		}
		fn()
		done()
	})
}

// popBuf pops a pooled staging slice (or makes one); the caller appends
// it back to the pool once consumed.
func popBuf[T any](pool *[][]T, capHint int) []T {
	if n := len(*pool); n > 0 {
		buf := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		return buf[:0]
	}
	return make([]T, 0, capHint)
}

// buildRecvBatch turns one source tx's indexed send_packet records into
// MsgRecvPackets destined for dst. The index slice and its records are
// shared across relayers and must not be mutated. Every record is
// sourced on src.channel, so its sequence alone keys src's table.
func (r *Relayer) buildRecvBatch(src, dst *endpoint, te *eventindex.TxEvents) {
	packets := te.SendPackets(src.channel)
	fresh := popBuf(&r.pktBuf, len(packets))
	for _, p := range packets {
		// A packet already expired on the destination (typical when
		// clearing a backlog after a partition) would be rejected there;
		// leave it to the timeout path instead of building a doomed recv.
		if src.packets.row(p.Sequence).sighted(p, p.TimeoutHeight > 0 && dst.height >= p.TimeoutHeight) {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		r.pktBuf = append(r.pktBuf, fresh)
		return
	}
	now := r.sched.Now()
	for _, p := range fresh {
		r.track(r.keyOf(src, p), metrics.StepTransferDataPull, now)
	}
	build := time.Duration(len(fresh)) * simconf.RelayerBuildCostPerMsg
	r.cpu.Submit(build, func() {
		done := r.sched.Now()
		r.tr.CompleteArg(r.otrack, r.nBuildRecv, done-build, done, uint64(len(fresh)))
		proofHeight := proofHeightOn(src, te.Info.Height)
		var kb [app.KeyBufLen]byte
		// One array holds the batch's messages: a pointer into it boxes
		// into app.Msg without an allocation of its own.
		msgs := make([]ibc.MsgRecvPacket, len(fresh))
		for i, p := range fresh {
			r.track(r.keyOf(src, p), metrics.StepRecvBuild, done)
			msgs[i] = ibc.MsgRecvPacket{
				Packet:          *p,
				ProofCommitment: proveMember(src, proofHeight, ibc.PacketRecords(kb[:0], app.Commitment, p.SourcePort, p.SourceChannel), p.Sequence),
				ProofHeight:     proofHeight,
				Relayer:         dst.account,
			}
			dst.outbox = append(dst.outbox, outMsg{
				msg:         &msgs[i],
				packet:      p,
				proofHeight: proofHeight,
				origin:      te.Info.Height,
			})
		}
		r.pktBuf = append(r.pktBuf, fresh)
		r.tryFlush(dst)
	})
}

// buildAckBatch turns the indexed write_acknowledgement records on src
// (the packet destination) into MsgAcknowledgements for dst (the packet
// source). A record received on src.channel was sent on its counterparty,
// dst.channel, so its sequence alone keys dst's table.
func (r *Relayer) buildAckBatch(src, dst *endpoint, te *eventindex.TxEvents) {
	writes := te.Acks(src.channel)
	fresh := popBuf(&r.ackBuf, len(writes))
	for _, w := range writes {
		if dst.packets.row(w.Packet.Sequence).ackSighted() {
			fresh = append(fresh, w)
		}
	}
	if len(fresh) == 0 {
		r.ackBuf = append(r.ackBuf, fresh)
		return
	}
	now := r.sched.Now()
	for _, w := range fresh {
		r.track(r.keyOf(dst, &w.Packet), metrics.StepRecvDataPull, now)
	}
	build := time.Duration(len(fresh)) * simconf.RelayerBuildCostPerMsg
	r.cpu.Submit(build, func() {
		done := r.sched.Now()
		r.tr.CompleteArg(r.otrack, r.nBuildAck, done-build, done, uint64(len(fresh)))
		proofHeight := proofHeightOn(src, te.Info.Height)
		var kb [app.KeyBufLen]byte
		msgs := make([]ibc.MsgAcknowledgement, len(fresh)) // as buildRecvBatch's
		for i, w := range fresh {
			p := &w.Packet
			key := r.keyOf(dst, p)
			r.track(key, metrics.StepAckBuild, done)
			// Decode always pairs the event's ack bytes (possibly empty)
			// with its packet; the placeholder guards only a nil slice,
			// mirroring the pre-index fallback exactly.
			ack := w.Ack
			if ack == nil {
				ack = ibc.SuccessAck.Bytes()
			}
			msgs[i] = ibc.MsgAcknowledgement{
				Packet:      *p,
				Ack:         ack,
				ProofAcked:  proveMember(src, proofHeight, ibc.PacketRecords(kb[:0], app.Ack, p.DestPort, p.DestChannel), p.Sequence),
				ProofHeight: proofHeight,
				Relayer:     dst.account,
			}
			dst.outbox = append(dst.outbox, outMsg{
				msg:         &msgs[i],
				packet:      p,
				proofHeight: proofHeight,
				origin:      te.Info.Height,
			})
		}
		r.ackBuf = append(r.ackBuf, fresh)
		r.tryFlush(dst)
	})
}

// checkTimeouts times out, on the packet source srcChain, the expirable
// packets whose timeout elapsed on dstChain, walking srcChain's table in
// sequence order: the order of the messages is the order of the txs and
// so decides the block hashes. Only a packet not received may time out.
// Under full proofs the absence proof decides. In performance mode one
// batched receipt probe to dstChain does, and it is exact: the relayer
// has seen dstChain at or past the timeout height, where every recv is
// rejected, so a receipt absent now stays absent.
func (r *Relayer) checkTimeouts(dstChain, srcChain *endpoint) {
	t := &srcChain.packets
	proofHeight := proofHeightOn(dstChain, dstChain.height)
	full := dstChain.chain.App.State().FullProofs()
	var probes []rpc.SettledProbe
	var due []*ibc.Packet // full proofs: the packets to time out, with their proofs
	var proofs []*merkle.RecordProof
	var kb [app.KeyBufLen]byte
	for seq, ok := t.expired(0, dstChain.height); ok; seq, ok = t.expired(seq+1, dstChain.height) {
		row := t.row(seq)
		p := row.p
		if !full {
			row.st = pktTimeoutProbing
			probes = append(probes, rpc.SettledProbe{Port: p.DestPort, Channel: p.DestChannel, Sequence: seq})
			continue
		}
		proof := proveAbsent(dstChain, proofHeight, ibc.PacketRecords(kb[:0], app.Receipt, p.DestPort, p.DestChannel), seq)
		if proof == nil {
			row.received()
			continue
		}
		row.st = pktTimeoutBuilt
		due, proofs = append(due, p), append(proofs, proof)
	}
	r.queueTimeouts(srcChain, due, proofs, proofHeight)
	if len(probes) == 0 {
		return
	}
	dstChain.rpc.QuerySettled(r.host, probes, func(settled []bool, err error) {
		due := make([]*ibc.Packet, 0, len(probes))
		for i, probe := range probes {
			ok := err == nil && i < len(settled) && !r.stopped
			if row := t.row(probe.Sequence); row.timeoutProbed(ok, ok && settled[i]) {
				due = append(due, row.p)
			}
		}
		r.queueTimeouts(srcChain, due, nil, proofHeight)
	})
}

// queueTimeouts queues a MsgTimeout for each packet of due on its
// source, with its absence proof from proofs under full proofs (nil
// otherwise), cut from one array as buildRecvBatch's messages are.
func (r *Relayer) queueTimeouts(src *endpoint, due []*ibc.Packet, proofs []*merkle.RecordProof, proofHeight int64) {
	msgs := make([]ibc.MsgTimeout, len(due))
	for i, p := range due {
		msgs[i] = ibc.MsgTimeout{Packet: *p, ProofHeight: proofHeight, Relayer: src.account}
		if proofs != nil {
			msgs[i].ProofUnreceived = proofs[i]
		}
		src.outbox = append(src.outbox, outMsg{msg: &msgs[i], packet: p, proofHeight: proofHeight})
	}
}

// proofHeightOn is the proof height of a message built now from an event
// at height h of src: h+1, or under full proofs src's latest committed
// height plus one, the only height its State proves at (later than h+1
// after a retried pull, a clearing pass or a standby's back-fill).
func proofHeightOn(src *endpoint, h int64) int64 {
	if st := src.chain.App.State(); st.FullProofs() {
		return st.Version() + 1
	}
	return h + 1
}

// proveMember fetches the proof of record seq of table r on the
// counterparty chain src at proofHeight-1 (the RPC cost of proof
// retrieval is folded into the calibrated data-pull cost). It is nil in
// performance mode and when the record is absent.
func proveMember(src *endpoint, proofHeight int64, r app.Records, seq uint64) *merkle.RecordProof {
	st := src.chain.App.State()
	if !st.FullProofs() {
		return nil
	}
	_, proof, err := st.ProveRecord(proofHeight-1, &r, seq)
	mustProve(src, proofHeight, &r, seq, err)
	return proof
}

// proveAbsent is proveMember for the record's absence: nil when it is
// present.
func proveAbsent(src *endpoint, proofHeight int64, r app.Records, seq uint64) *merkle.RecordProof {
	st := src.chain.App.State()
	if !st.FullProofs() {
		return nil
	}
	proof, err := st.ProveRecordAbsent(proofHeight-1, &r, seq)
	mustProve(src, proofHeight, &r, seq, err)
	return proof
}

// mustProve panics on a State error (a height other than the latest
// committed one, say): a simulator fault, not a failed relayer tx.
func mustProve(src *endpoint, proofHeight int64, r *app.Records, seq uint64, err error) {
	if err != nil {
		panic(fmt.Sprintf("relayer: proof of %q on %s at height %d: %v", string(strconv.AppendUint(r.Prefix, seq, 10)), src.chain.ID, proofHeight-1, err))
	}
}

// tryFlush starts the submission loop for an endpoint's outbox.
func (r *Relayer) tryFlush(dst *endpoint) {
	if dst.flushing || len(dst.outbox) == 0 || r.stopped {
		return
	}
	dst.flushing = true
	r.flushNext(dst)
}

// counterpartOf returns the other endpoint.
func (r *Relayer) counterpartOf(e *endpoint) *endpoint {
	if e == r.a {
		return r.b
	}
	return r.a
}

// flushNext submits one batch (≤100 msgs) to dst, then continues.
func (r *Relayer) flushNext(dst *endpoint) {
	if r.stopped || len(dst.outbox) == 0 {
		dst.flushing = false
		return
	}
	src := r.counterpartOf(dst)
	r.backlog.Observe(float64(len(dst.outbox)))

	// Only messages whose proof height the relayer has observed on the
	// counterparty can be submitted; the rest wait for the next block
	// frame. Gating on the event-observed height (not a live store read)
	// keeps the decision a function of this relayer's own message
	// history; the header read for a client update is then immutable
	// committed data.
	n := 0
	for n < len(dst.outbox) && n < simconf.RelayerMaxMsgsPerTx && dst.outbox[n].proofHeight <= src.height {
		n++
	}
	if n == 0 {
		dst.flushing = false
		return
	}
	batch := append([]outMsg(nil), dst.outbox[:n]...)
	dst.outbox = append(dst.outbox[:0], dst.outbox[n:]...)

	// Prepend a client update for every distinct proof height the batch
	// needs that the client has no consensus state for yet. A live flow
	// needs at most one (heights arrive in order); a backlog-clearing
	// batch spans several historical blocks and needs one per height.
	// The advance is optimistic: a failed transaction reverts its
	// updates, so the submission path rolls the local view back.
	var updHeights []int64
	for _, m := range batch {
		if m.kind() == kindRecv {
			src.packets.row(m.packet.Sequence).submitted()
		}
		h := m.proofHeight
		if h <= 0 || dst.clientHeights[h] {
			continue
		}
		dst.clientHeights[h] = true
		updHeights = append(updHeights, h)
	}
	slices.Sort(updHeights)
	msgs := make([]app.Msg, 0, n+len(updHeights))
	for _, h := range updHeights {
		// dst's client of src is updated with the signed header in src's
		// store.
		if blk, err := src.chain.Store.Block(h); err == nil {
			msgs = append(msgs, ibc.MsgUpdateClient{ClientID: dst.clientID, Bundle: ibc.HeaderBundle{Header: blk.Block.Header, Commit: blk.Commit}})
		}
	}
	for _, m := range batch {
		msgs = append(msgs, m.msg)
	}
	r.submitTx(dst, msgs, batch, updHeights, 0)
}

// rollbackClient undoes the optimistic client-update advances upd of a
// reverted transaction: its MsgUpdateClients never stored a consensus
// state.
func (r *Relayer) rollbackClient(dst *endpoint, upd []int64) {
	for _, h := range upd {
		delete(dst.clientHeights, h)
	}
}

// submitTx broadcasts one relayer transaction, handling sequence
// initialization, mismatch recovery and confirmation polling.
func (r *Relayer) submitTx(dst *endpoint, msgs []app.Msg, batch []outMsg, upd []int64, attempt int) {
	if r.stopped {
		// Crash injection mid-submission: abandon the batch like the
		// confirmation path does, so a post-resume clearing pass can
		// rebuild it.
		dst.flushing = false
		r.releaseBatch(dst, batch, upd)
		return
	}
	if !dst.seqInit {
		dst.rpc.QueryAccountSequence(r.host, dst.account, func(seq uint64, err error) {
			if err != nil {
				r.sched.After(simconf.RelayerConfirmPollInterval, func() { r.submitTx(dst, msgs, batch, upd, attempt) })
				return
			}
			dst.seq = seq
			dst.seqInit = true
			r.submitTx(dst, msgs, batch, upd, attempt)
		})
		return
	}
	tx := app.NewTx(dst.account, dst.seq, uint64(r.rng.Int63n(1<<62)), msgs)
	r.stats.TxsSubmitted++
	subStart := r.sched.Now()
	dst.rpc.BroadcastTxSync(r.host, tx, func(err error) {
		if err == nil {
			dst.seq++
			now := r.sched.Now()
			r.tr.CompleteArg(r.otrack, r.nSubmit, subStart, now, uint64(len(batch)))
			for _, m := range batch {
				r.track(r.keyOf(r.sourceOf(dst, m), m.packet), m.step(), now)
			}
			r.confirmTx(dst, tx, batch, upd, 0)
			// Pipeline: submit the next batch immediately.
			r.flushNext(dst)
			return
		}
		// A sequence mismatch re-reads the account sequence; a full
		// mempool, an RPC timeout or a partitioned path backs off. Either
		// retries, then gives the batch up to a later clearing pass.
		backoff := 5 * simconf.RelayerConfirmPollInterval
		if errors.Is(err, app.ErrSequenceMismatch) {
			r.stats.SeqMismatchErrors++
			dst.seqInit = false
			backoff = simconf.RelayerConfirmPollInterval
		}
		if attempt < 5 {
			r.stats.Retries++
			r.sched.After(backoff, func() { r.submitTx(dst, msgs, batch, upd, attempt+1) })
			return
		}
		r.stats.TxsFailed++
		r.releaseBatch(dst, batch, upd)
		r.flushNext(dst)
	})
}

// confirmTx polls for a submitted transaction's commitment, recording
// confirmation steps and handling redundant-packet failures.
func (r *Relayer) confirmTx(dst *endpoint, tx *app.Tx, batch []outMsg, upd []int64, attempt int) {
	if attempt >= confirmAttempts || r.stopped {
		r.stats.TxsFailed++
		r.releaseBatch(dst, batch, upd)
		return
	}
	r.sched.After(simconf.RelayerConfirmPollInterval, func() {
		dst.rpc.QueryTx(r.host, tx.Hash(), func(info *store.TxInfo, err error) {
			if err != nil {
				r.confirmTx(dst, tx, batch, upd, attempt+1)
				return
			}
			now := r.sched.Now()
			if info.Result.IsOK() {
				for _, m := range batch {
					key := r.keyOf(r.sourceOf(dst, m), m.packet)
					k := m.kind()
					r.rowOf(dst, m).confirmed(k)
					switch k {
					case kindRecv:
						r.stats.RecvDelivered++
						r.track(key, metrics.StepRecvConfirmation, now)
						continue
					case kindTimeout:
						r.stats.TimeoutsDelivered++
					default:
						r.stats.AcksDelivered++
					}
					r.track(key, metrics.StepAckExtraction, now)
					r.track(key, metrics.StepAckConfirmation, now)
				}
				return
			}
			// Failed transaction: with two relayers this is typically
			// "packet messages are redundant".
			r.stats.TxsFailed++
			r.rollbackClient(dst, upd)
			if strings.Contains(info.Result.Log, "redundant") {
				r.stats.RedundantErrors++
			}
			// Retry each message once: a partially redundant
			// batch reverts its legitimate messages too. Messages whose
			// packet another relayer already settled on chain are filtered
			// out first (Hermes re-queries unreceived_packets before
			// rebuilding), so a backlog-clearing batch colliding with
			// prior deliveries still lands its fresh messages on the
			// retry.
			r.retryUnsettled(dst, batch)
		})
	})
}

// retryUnsettled re-queues a failed batch's messages on their first
// attempt after filtering out those another relayer already settled on
// chain — the receipt exists on the destination (recv) or the commitment
// is cleared on the source (ack/timeout). Models Hermes'
// unreceived_packets / unreceived_acks re-query before a rebuild, as one
// batched RPC against committed state, like every other state read. A
// settled recv marks its packet received.
func (r *Relayer) retryUnsettled(dst *endpoint, batch []outMsg) {
	var candidates []outMsg
	var probes []rpc.SettledProbe
	for i, m := range batch {
		p := m.packet
		if !r.rowOf(dst, m).failed(m.kind()) {
			continue
		}
		if candidates == nil {
			candidates = make([]outMsg, 0, len(batch)-i)
			probes = make([]rpc.SettledProbe, 0, len(batch)-i)
		}
		probe := rpc.SettledProbe{Port: p.DestPort, Channel: p.DestChannel, Sequence: p.Sequence}
		if m.kind() != kindRecv {
			probe = rpc.SettledProbe{Ack: true, Port: p.SourcePort, Channel: p.SourceChannel, Sequence: p.Sequence}
		}
		candidates = append(candidates, m)
		probes = append(probes, probe)
	}
	if len(candidates) == 0 {
		return
	}
	dst.rpc.QuerySettled(r.host, probes, func(settled []bool, err error) {
		queued := len(dst.outbox)
		for i, m := range candidates {
			ok := err == nil && i < len(settled) && settled[i]
			if r.rowOf(dst, m).probed(m.kind(), ok, !r.stopped) {
				dst.outbox = append(dst.outbox, m)
			}
		}
		if len(dst.outbox) > queued {
			r.tryFlush(dst)
		}
	})
}

// releaseBatch gives back messages whose delivery could not be confirmed
// (network failures, partitions) to their packets' tables and re-queues
// their origin heights for the clearing pass, so the messages are rebuilt
// instead of leaving the packets stuck — the height was processed
// normally, so no frame gap would ever re-scan it. A released recv
// leaves its packet expirable, and so does a released timeout. The
// batch's client updates upd are rolled back.
func (r *Relayer) releaseBatch(dst *endpoint, batch []outMsg, upd []int64) {
	r.rollbackClient(dst, upd)
	src := r.counterpartOf(dst)
	requeued := false
	for _, m := range batch {
		r.rowOf(dst, m).released(m.kind(), m.packet)
		// A recv or an ack was built from an event on the counterparty (a
		// timeout has no origin); re-scan its height.
		if r.cfg.ClearIntervalBlocks > 0 && m.origin > 0 {
			src.queue(m.origin)
			requeued = true
		}
	}
	if requeued {
		r.scheduleClear(src, dst)
	}
}

// queue puts height h of this chain on the clearing pass's list.
func (e *endpoint) queue(h int64) {
	e.missed = append(e.missed, h)
	if e.uncleared == nil {
		e.uncleared = make(map[int64]bool)
	}
	e.uncleared[h] = true
}

// scheduleClear arranges a packet-clear pass over missed heights.
func (r *Relayer) scheduleClear(src, dst *endpoint) {
	interval := time.Duration(r.cfg.ClearIntervalBlocks) * simconf.MinBlockInterval
	src.passes++
	r.sched.After(interval, func() {
		src.passes--
		if r.stopped {
			return
		}
		missed := src.missed
		if len(missed) == 0 {
			return
		}
		src.missed = nil
		// Dedupe: a released batch queues one entry per message, and gaps
		// can overlap earlier misses — one indexed query per height. The
		// scratch map is relayer-owned and only used within this event,
		// so passes reuse it.
		if r.clearSeen == nil {
			r.clearSeen = make(map[int64]bool, len(missed))
		}
		seen := r.clearSeen
		clear(seen)
		for _, h := range missed {
			if seen[h] {
				continue
			}
			seen[h] = true
			if src.querying == nil {
				src.querying = make(map[int64]int)
			}
			src.querying[h]++
			src.rpc.QueryBlockEvents(r.host, h, func(be *eventindex.BlockEvents, err error) {
				if src.querying[h]--; src.querying[h] == 0 {
					delete(src.querying, h)
				}
				if err != nil {
					// A lost query or reply: nothing else would ever
					// re-scan this height, so it goes back on the list for
					// another pass. A node that answers but does not have
					// the height will not have it next time either.
					if !errors.Is(err, rpc.ErrNotFound) {
						src.queue(h)
						r.scheduleClear(src, dst)
					} else {
						delete(src.uncleared, h)
					}
					return
				}
				if r.stopped {
					// The height goes back on the list, for Resume.
					src.queue(h)
					return
				}
				delete(src.uncleared, h)
				r.processBlock(src, dst, be)
				r.tryFlush(dst)
			})
		}
		// One clear-pass instant per pass, tagged with the number of
		// re-scanned heights.
		r.tr.InstantArg(r.otrack, r.nClear, r.sched.Now(), uint64(len(seen)))
	})
}

// LostHeights reports, in order, the heights of the given chain this
// relayer queued for a clearing pass and lost: not re-scanned
// (processed, or answered ErrNotFound), not queried now, and not queued
// with a pass pending. It is nil for a relayer that does not clear, or
// is stopped.
func (r *Relayer) LostHeights(chainID string) []int64 {
	if r.cfg.ClearIntervalBlocks <= 0 || r.stopped {
		return nil
	}
	e := r.a
	if e.chain.ID != chainID {
		e = r.b
	}
	var lost []int64
	for h := range e.uncleared { // order-free: sorted below
		if e.querying[h] == 0 && (e.passes == 0 || !slices.Contains(e.missed, h)) {
			lost = append(lost, h)
		}
	}
	slices.Sort(lost)
	return lost
}

// --- helpers -----------------------------------------------------------------

func (r *Relayer) track(key metrics.PacketKey, step metrics.Step, at time.Duration) {
	if r.cfg.Tracker != nil {
		r.cfg.Tracker.Record(key, step, at)
	}
}

// keyOf identifies a packet originating on src.
func (r *Relayer) keyOf(src *endpoint, p *ibc.Packet) metrics.PacketKey {
	return metrics.PacketKey{SrcChain: src.chain.ID, Channel: p.SourceChannel, Sequence: p.Sequence}
}

// sourceOf is the packet source of an outgoing message submitted to dst:
// acks and timeouts land on the packet's source chain.
func (r *Relayer) sourceOf(dst *endpoint, m outMsg) *endpoint {
	if m.kind() == kindRecv {
		return r.counterpartOf(dst)
	}
	return dst
}

// rowOf is the table row of the packet of a message submitted to dst.
func (r *Relayer) rowOf(dst *endpoint, m outMsg) *packetRow {
	return r.sourceOf(dst, m).packets.row(m.packet.Sequence)
}
