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
	"sort"
	"strings"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
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

type pktID struct {
	srcChain string
	channel  string
	seq      uint64
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

	// height is the latest height observed via events.
	height int64

	// outbox holds built messages awaiting submission, each tagged with
	// its packet and required proof height.
	outbox []outMsg

	// flushing guards the sequential submission loop.
	flushing bool
}

type outMsg struct {
	msg         app.Msg
	packet      ibc.Packet
	proofHeight int64
	step        metrics.Step // broadcast step to record on acceptance
	retried     bool
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

	// seenRecv / seenAck dedupe packets this relayer already handled.
	seenRecv map[pktID]bool
	seenAck  map[pktID]bool

	// pendingRecv tracks packets extracted but not yet known delivered,
	// for timeout detection.
	pendingRecv map[pktID]ibc.Packet

	// missed heights per source endpoint for the clearing loop.
	missedA []int64
	missedB []int64

	// pullQueue serializes data pulls: Hermes issues its RPC queries one
	// at a time and waits for each response (§IV-B).
	pullQueue   []func(func())
	pullRunning bool

	// Batch-build freelists: the fresh-packet/ack staging slices live
	// only until the build closure consumes them (contents are copied
	// into outbox messages by value), so steady-state clearing passes
	// reuse them instead of allocating per block. clearSeen is the
	// clear pass's height-dedupe scratch map, reused likewise.
	pktBuf    [][]ibc.Packet
	ackBuf    [][]ibc.AckWrite
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
		// a shared stream interleave across relayers (which the parallel
		// runner could not reproduce).
		rng:         sim.NewRNG(rng.Int63()),
		cfg:         cfg,
		host:        netem.Host("relayer/" + cfg.Name),
		cpu:         sim.NewSerialResource(sched),
		seenRecv:    make(map[pktID]bool),
		seenAck:     make(map[pktID]bool),
		pendingRecv: make(map[pktID]ibc.Packet),
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

// Resume restarts a stopped relayer.
func (r *Relayer) Resume() { r.stopped = false }

// Stopped reports whether the relayer is currently paused — a crashed
// process answers no health probes (failover supervisors ping this).
func (r *Relayer) Stopped() bool { return r.stopped }

// addMissed queues a source height for the clearing pass.
func (r *Relayer) addMissed(src *endpoint, h int64) {
	if src == r.a {
		r.missedA = append(r.missedA, h)
	} else {
		r.missedB = append(r.missedB, h)
	}
}

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
			r.addMissed(src, h)
		}
		r.scheduleClear(src, dst)
	}
	if frame.Height > src.height {
		src.height = frame.Height
	}
	if frame.Err != nil {
		// "Failed to collect events": the block's packets are invisible.
		r.stats.FramesLost++
		if r.cfg.ClearIntervalBlocks > 0 {
			r.addMissed(src, frame.Height)
			r.scheduleClear(src, dst)
		}
		r.checkTimeouts(src, dst)
		r.tryFlush(src)
		r.tryFlush(dst)
		return
	}
	r.processBlock(src, dst, frame.Events)
	// New destination-side heights unblock proof-height waits and may
	// expire pending packets.
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
		if r.tr != nil {
			// The scan span covers the charged parse service time.
			r.tr.CompleteArg(r.otrack, r.nScan, now-parse, now, uint64(be.MsgCount))
		}
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
				key := r.keyOf(dst, w.Packet) // packet's source is the counterparty
				r.track(key, metrics.StepRecvExtraction, now)
				// The event subscription confirms commitment too; the
				// polling path below is a fallback (first write wins).
				r.track(key, metrics.StepRecvConfirmation, now)
			}
		}
		// Data pulls: one heavy query per tx, serial on the source RPC.
		for _, te := range recvTxs {
			r.pullTxData(src, 0, te, func() { r.buildRecvBatch(src, dst, te) })
		}
		for _, te := range ackTxs {
			r.pullTxData(src, 0, te, func() { r.buildAckBatch(src, dst, te) })
		}
	})
}

// pullTxData enqueues a heavy data-pull query on the relayer's serial
// pull queue (Hermes waits for each query response before issuing the
// next — §IV-B), retrying on timeouts. The response payload itself is
// already decoded in the event index; the pull pays the wire/service
// cost and fn consumes the indexed records.
func (r *Relayer) pullTxData(src *endpoint, attempt int, te *eventindex.TxEvents, fn func()) {
	r.enqueuePull(func(done func()) {
		r.doPull(src, attempt, te, fn, done)
	})
}

func (r *Relayer) enqueuePull(job func(func())) {
	r.pullQueue = append(r.pullQueue, job)
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

// getPktBuf pops a pooled packet-staging slice (or makes one).
func (r *Relayer) getPktBuf(capHint int) []ibc.Packet {
	if n := len(r.pktBuf); n > 0 {
		buf := r.pktBuf[n-1]
		r.pktBuf[n-1] = nil
		r.pktBuf = r.pktBuf[:n-1]
		return buf[:0]
	}
	return make([]ibc.Packet, 0, capHint)
}

func (r *Relayer) putPktBuf(buf []ibc.Packet) { r.pktBuf = append(r.pktBuf, buf) }

// getAckBuf pops a pooled ack-staging slice (or makes one).
func (r *Relayer) getAckBuf(capHint int) []ibc.AckWrite {
	if n := len(r.ackBuf); n > 0 {
		buf := r.ackBuf[n-1]
		r.ackBuf[n-1] = nil
		r.ackBuf = r.ackBuf[:n-1]
		return buf[:0]
	}
	return make([]ibc.AckWrite, 0, capHint)
}

func (r *Relayer) putAckBuf(buf []ibc.AckWrite) { r.ackBuf = append(r.ackBuf, buf) }

// buildRecvBatch turns one source tx's indexed send_packet records into
// MsgRecvPackets destined for dst. The index slice is shared across
// relayers and must not be mutated.
func (r *Relayer) buildRecvBatch(src, dst *endpoint, te *eventindex.TxEvents) {
	packets := te.SendPackets(src.channel)
	fresh := r.getPktBuf(len(packets))
	for _, p := range packets {
		id := pktID{src.chain.ID, p.SourceChannel, p.Sequence}
		if r.seenRecv[id] {
			continue
		}
		r.seenRecv[id] = true
		r.pendingRecv[id] = p
		// A packet already expired on the destination (typical when
		// clearing a backlog after a partition) would be rejected there;
		// leave it to the timeout path instead of building a doomed recv.
		if p.TimeoutHeight > 0 && dst.height >= p.TimeoutHeight {
			continue
		}
		fresh = append(fresh, p)
	}
	if len(fresh) == 0 {
		r.putPktBuf(fresh)
		return
	}
	now := r.sched.Now()
	for _, p := range fresh {
		r.track(r.keyOf(src, p), metrics.StepTransferDataPull, now)
	}
	build := time.Duration(len(fresh)) * simconf.RelayerBuildCostPerMsg
	r.cpu.Submit(build, func() {
		done := r.sched.Now()
		if r.tr != nil {
			r.tr.CompleteArg(r.otrack, r.nBuildRecv, done-build, done, uint64(len(fresh)))
		}
		proofHeight := te.Info.Height + 1
		var kb [app.KeyBufLen]byte
		for _, p := range fresh {
			r.track(r.keyOf(src, p), metrics.StepRecvBuild, done)
			dst.outbox = append(dst.outbox, outMsg{
				msg: ibc.MsgRecvPacket{
					Packet:          p,
					ProofCommitment: r.proveOn(src, proofHeight, ibc.AppendPacketCommitmentKey(kb[:0], p.SourcePort, p.SourceChannel, p.Sequence), true),
					ProofHeight:     proofHeight,
					Relayer:         dst.account,
				},
				packet:      p,
				proofHeight: proofHeight,
				step:        metrics.StepRecvBroadcast,
			})
		}
		r.putPktBuf(fresh)
		r.tryFlush(dst)
	})
}

// buildAckBatch turns the indexed write_acknowledgement records on src
// (the packet destination) into MsgAcknowledgements for dst (the packet
// source).
func (r *Relayer) buildAckBatch(src, dst *endpoint, te *eventindex.TxEvents) {
	writes := te.Acks(src.channel)
	fresh := r.getAckBuf(len(writes))
	for _, w := range writes {
		id := pktID{dst.chain.ID, w.Packet.SourceChannel, w.Packet.Sequence}
		if r.seenAck[id] {
			continue
		}
		r.seenAck[id] = true
		delete(r.pendingRecv, id)
		fresh = append(fresh, w)
	}
	if len(fresh) == 0 {
		r.putAckBuf(fresh)
		return
	}
	now := r.sched.Now()
	for _, w := range fresh {
		r.track(r.keyOf(dst, w.Packet), metrics.StepRecvDataPull, now)
	}
	build := time.Duration(len(fresh)) * simconf.RelayerBuildCostPerMsg
	r.cpu.Submit(build, func() {
		done := r.sched.Now()
		if r.tr != nil {
			r.tr.CompleteArg(r.otrack, r.nBuildAck, done-build, done, uint64(len(fresh)))
		}
		proofHeight := te.Info.Height + 1
		var kb [app.KeyBufLen]byte
		for _, w := range fresh {
			p := w.Packet
			key := r.keyOf(dst, p)
			r.track(key, metrics.StepAckBuild, done)
			// Decode always pairs the event's ack bytes (possibly empty)
			// with its packet; the placeholder guards only a nil slice,
			// mirroring the pre-index fallback exactly.
			ack := w.Ack
			if ack == nil {
				ack = ibc.Acknowledgement{Result: []byte("AQ==")}.Bytes()
			}
			dst.outbox = append(dst.outbox, outMsg{
				msg: ibc.MsgAcknowledgement{
					Packet:      p,
					Ack:         ack,
					ProofAcked:  r.proveOn(src, proofHeight, ibc.AppendPacketAckKey(kb[:0], p.DestPort, p.DestChannel, p.Sequence), true),
					ProofHeight: proofHeight,
					Relayer:     dst.account,
				},
				packet:      p,
				proofHeight: proofHeight,
				step:        metrics.StepAckBroadcast,
			})
		}
		r.putAckBuf(fresh)
		r.tryFlush(dst)
	})
}

// checkTimeouts builds MsgTimeouts on the packet source (dst here is the
// counterparty of src) for pending packets whose timeout elapsed on src.
// The order of the messages is the order of the txs and so decides the
// block hashes: packets expiring on one frame are timed out in
// (channel, sequence) order, never in map order.
func (r *Relayer) checkTimeouts(dstChain, srcChain *endpoint) {
	var expired []pktID
	for id, p := range r.pendingRecv {
		if id.srcChain == srcChain.chain.ID && p.TimeoutHeight > 0 && dstChain.height >= p.TimeoutHeight {
			expired = append(expired, id)
		}
	}
	if len(expired) > 1 {
		sort.Slice(expired, func(i, j int) bool {
			if expired[i].channel != expired[j].channel {
				return expired[i].channel < expired[j].channel
			}
			return expired[i].seq < expired[j].seq
		})
	}
	proofHeight := dstChain.height + 1
	var kb [app.KeyBufLen]byte
	for _, id := range expired {
		p := r.pendingRecv[id]
		delete(r.pendingRecv, id)
		srcChain.outbox = append(srcChain.outbox, outMsg{
			msg: ibc.MsgTimeout{
				Packet:          p,
				ProofUnreceived: r.proveOn(dstChain, proofHeight, ibc.AppendPacketReceiptKey(kb[:0], p.DestPort, p.DestChannel, p.Sequence), false),
				ProofHeight:     proofHeight,
				Relayer:         srcChain.account,
			},
			packet:      p,
			proofHeight: proofHeight,
			step:        metrics.StepAckBroadcast, // timeout completes the packet on source
		})
	}
}

// proveOn fetches a proof from the counterparty chain's state (the RPC
// cost of proof retrieval is folded into the calibrated data-pull cost).
// The key's string is made only when there is a proof to look it up in.
func (r *Relayer) proveOn(src *endpoint, proofHeight int64, key []byte, membership bool) *ibc.Proof {
	st := src.chain.App.State()
	if !st.FullProofs() {
		return nil
	}
	tree, err := st.TreeAt(proofHeight - 1)
	if err != nil {
		return nil
	}
	k := string(key)
	if membership {
		_, mp, ok := tree.ProveMembership(k)
		if !ok {
			return nil
		}
		return &ibc.Proof{Membership: mp}
	}
	nm, ok := tree.ProveNonMembership(k)
	if !ok {
		return nil
	}
	return &ibc.Proof{NonMembership: nm}
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
	// history, which the parallel runner reproduces exactly; the header
	// read in clientUpdate is then immutable committed data.
	n := 0
	for n < len(dst.outbox) && n < simconf.RelayerMaxMsgsPerTx {
		if dst.outbox[n].proofHeight > src.height {
			break
		}
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
		h := m.proofHeight
		if h <= 0 || dst.clientHeights[h] {
			continue
		}
		dst.clientHeights[h] = true
		updHeights = append(updHeights, h)
	}
	sort.Slice(updHeights, func(i, j int) bool { return updHeights[i] < updHeights[j] })
	msgs := make([]app.Msg, 0, n+len(updHeights))
	meta := txMeta{updHeights: updHeights}
	for _, h := range updHeights {
		if upd := r.clientUpdate(src, dst, h); upd != nil {
			msgs = append(msgs, *upd)
		}
	}
	for _, m := range batch {
		msgs = append(msgs, m.msg)
	}
	r.submitTx(dst, msgs, batch, meta, 0)
}

// txMeta remembers a submission's optimistic client-update advances so
// a failed transaction can undo them (a reverted MsgUpdateClient never
// stored its consensus state).
type txMeta struct {
	updHeights []int64
}

// rollbackClient undoes a reverted transaction's client updates.
func (r *Relayer) rollbackClient(dst *endpoint, meta txMeta) {
	for _, h := range meta.updHeights {
		delete(dst.clientHeights, h)
	}
}

// clientUpdate builds a MsgUpdateClient for dst's client of src at the
// given height, reading the signed header from src's store.
func (r *Relayer) clientUpdate(src, dst *endpoint, height int64) *app.Msg {
	blk, err := src.chain.Store.Block(height)
	if err != nil {
		return nil
	}
	var m app.Msg = ibc.MsgUpdateClient{
		ClientID: dst.clientID,
		Bundle:   ibc.HeaderBundle{Header: blk.Block.Header, Commit: blk.Commit},
	}
	return &m
}

// submitTx broadcasts one relayer transaction, handling sequence
// initialization, mismatch recovery and confirmation polling.
func (r *Relayer) submitTx(dst *endpoint, msgs []app.Msg, batch []outMsg, meta txMeta, attempt int) {
	if r.stopped {
		// Crash injection mid-submission: abandon the batch like the
		// confirmation path does, so a post-resume clearing pass can
		// rebuild it.
		dst.flushing = false
		r.rollbackClient(dst, meta)
		r.releaseBatch(dst, batch)
		return
	}
	if !dst.seqInit {
		dst.rpc.QueryAccountSequence(r.host, dst.account, func(seq uint64, err error) {
			if err != nil {
				r.sched.After(simconf.RelayerConfirmPollInterval, func() { r.submitTx(dst, msgs, batch, meta, attempt) })
				return
			}
			dst.seq = seq
			dst.seqInit = true
			r.submitTx(dst, msgs, batch, meta, attempt)
		})
		return
	}
	tx := app.NewTx(dst.account, dst.seq, uint64(r.rng.Int63n(1<<62)), msgs)
	r.stats.TxsSubmitted++
	var subStart time.Duration
	if r.tr != nil {
		subStart = r.sched.Now()
	}
	dst.rpc.BroadcastTxSync(r.host, tx, func(err error) {
		switch {
		case err == nil:
			dst.seq++
			now := r.sched.Now()
			if r.tr != nil {
				r.tr.CompleteArg(r.otrack, r.nSubmit, subStart, now, uint64(len(batch)))
			}
			for _, m := range batch {
				r.track(r.keyOfMsg(dst, m), m.step, now)
			}
			r.confirmTx(dst, tx, batch, meta, 0)
			// Pipeline: submit the next batch immediately.
			r.flushNext(dst)
		case errors.Is(err, app.ErrSequenceMismatch):
			r.stats.SeqMismatchErrors++
			dst.seqInit = false
			if attempt < 5 {
				r.stats.Retries++
				r.sched.After(simconf.RelayerConfirmPollInterval, func() { r.submitTx(dst, msgs, batch, meta, attempt+1) })
			} else {
				r.stats.TxsFailed++
				r.rollbackClient(dst, meta)
				r.releaseBatch(dst, batch)
				r.flushNext(dst)
			}
		default:
			// Mempool full, RPC timeout or a partitioned path: back off
			// and retry, then give the batch up to a later clearing pass.
			if attempt < 5 {
				r.stats.Retries++
				r.sched.After(5*simconf.RelayerConfirmPollInterval, func() { r.submitTx(dst, msgs, batch, meta, attempt+1) })
			} else {
				r.stats.TxsFailed++
				r.rollbackClient(dst, meta)
				r.releaseBatch(dst, batch)
				r.flushNext(dst)
			}
		}
	})
}

// confirmTx polls for a submitted transaction's commitment, recording
// confirmation steps and handling redundant-packet failures.
func (r *Relayer) confirmTx(dst *endpoint, tx *app.Tx, batch []outMsg, meta txMeta, attempt int) {
	if attempt >= confirmAttempts || r.stopped {
		r.stats.TxsFailed++
		r.rollbackClient(dst, meta)
		r.releaseBatch(dst, batch)
		return
	}
	r.sched.After(simconf.RelayerConfirmPollInterval, func() {
		dst.rpc.QueryTx(r.host, tx.Hash(), func(info *store.TxInfo, err error) {
			if err != nil {
				r.confirmTx(dst, tx, batch, meta, attempt+1)
				return
			}
			now := r.sched.Now()
			if info.Result.IsOK() {
				for _, m := range batch {
					key := r.keyOfMsg(dst, m)
					switch m.step {
					case metrics.StepRecvBroadcast:
						r.stats.RecvDelivered++
						r.track(key, metrics.StepRecvConfirmation, now)
						id := pktID{r.counterpartOf(dst).chain.ID, m.packet.SourceChannel, m.packet.Sequence}
						delete(r.pendingRecv, id)
					case metrics.StepAckBroadcast:
						if _, isTimeout := m.msg.(ibc.MsgTimeout); isTimeout {
							r.stats.TimeoutsDelivered++
						} else {
							r.stats.AcksDelivered++
						}
						r.track(key, metrics.StepAckExtraction, now)
						r.track(key, metrics.StepAckConfirmation, now)
					}
				}
				return
			}
			// Failed transaction: with two relayers this is typically
			// "packet messages are redundant".
			r.stats.TxsFailed++
			r.rollbackClient(dst, meta)
			if containsRedundant(info.Result.Log) {
				r.stats.RedundantErrors++
			}
			// Retry non-retried messages once: a partially redundant
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

// retryUnsettled re-queues a failed batch's not-yet-retried messages
// after filtering out those another relayer already settled on chain —
// the receipt exists on the destination (recv) or the commitment is
// cleared on the source (ack/timeout). Models Hermes' unreceived_packets
// / unreceived_acks re-query before a rebuild, as one batched RPC
// against committed state (like every other state read, so it works
// across partition boundaries).
func (r *Relayer) retryUnsettled(dst *endpoint, batch []outMsg) {
	var candidates []outMsg
	var probes []rpc.SettledProbe
	for _, m := range batch {
		if m.retried {
			continue
		}
		m.retried = true
		p := m.packet
		probe := rpc.SettledProbe{Port: p.DestPort, Channel: p.DestChannel, Sequence: p.Sequence}
		if _, isRecv := m.msg.(ibc.MsgRecvPacket); !isRecv {
			probe = rpc.SettledProbe{Ack: true, Port: p.SourcePort, Channel: p.SourceChannel, Sequence: p.Sequence}
		}
		candidates = append(candidates, m)
		probes = append(probes, probe)
	}
	if len(candidates) == 0 {
		return
	}
	dst.rpc.QuerySettled(r.host, probes, func(settled []bool, err error) {
		if r.stopped {
			return
		}
		var retry []outMsg
		for i, m := range candidates {
			if err == nil && i < len(settled) && settled[i] {
				continue
			}
			retry = append(retry, m)
		}
		if len(retry) > 0 {
			dst.outbox = append(dst.outbox, retry...)
			r.tryFlush(dst)
		}
	})
}

// releaseBatch forgets the seen-marks of messages whose delivery could
// not be confirmed (network failures, partitions) and re-queues their
// origin heights for the clearing pass, so the messages are rebuilt
// instead of leaving the packets stuck — the height was processed
// normally, so no frame gap would ever re-scan it. Recv packets also
// stay in pendingRecv, keeping the timeout path armed; timed-out
// packets whose MsgTimeout was lost re-enter pendingRecv for another
// attempt.
func (r *Relayer) releaseBatch(dst *endpoint, batch []outMsg) {
	src := r.counterpartOf(dst)
	requeued := false
	for _, m := range batch {
		switch m.msg.(type) {
		case ibc.MsgRecvPacket, ibc.MsgAcknowledgement:
			if _, isRecv := m.msg.(ibc.MsgRecvPacket); isRecv {
				delete(r.seenRecv, pktID{src.chain.ID, m.packet.SourceChannel, m.packet.Sequence})
			} else {
				delete(r.seenAck, pktID{dst.chain.ID, m.packet.SourceChannel, m.packet.Sequence})
			}
			// Both message kinds were built from an event on the
			// counterparty at proofHeight-1; re-scan that height.
			if r.cfg.ClearIntervalBlocks > 0 && m.proofHeight > 1 {
				r.addMissed(src, m.proofHeight-1)
				requeued = true
			}
		case ibc.MsgTimeout:
			r.pendingRecv[pktID{dst.chain.ID, m.packet.SourceChannel, m.packet.Sequence}] = m.packet
		}
	}
	if requeued {
		r.scheduleClear(src, dst)
	}
}

// scheduleClear arranges a packet-clear pass over missed heights.
func (r *Relayer) scheduleClear(src, dst *endpoint) {
	interval := time.Duration(r.cfg.ClearIntervalBlocks) * simconf.MinBlockInterval
	r.sched.After(interval, func() {
		if r.stopped {
			return
		}
		missed := r.missedA
		if src == r.b {
			missed = r.missedB
		}
		if len(missed) == 0 {
			return
		}
		if src == r.a {
			r.missedA = nil
		} else {
			r.missedB = nil
		}
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
			src.rpc.QueryBlockEvents(r.host, h, func(be *eventindex.BlockEvents, err error) {
				if err != nil {
					// A lost query or reply: nothing else would ever
					// re-scan this height, so it goes back on the list for
					// another pass. A node that answers but does not have
					// the height will not have it next time either.
					if !errors.Is(err, rpc.ErrNotFound) {
						r.addMissed(src, h)
						r.scheduleClear(src, dst)
					}
					return
				}
				if r.stopped {
					return
				}
				r.processBlock(src, dst, be)
				r.tryFlush(dst)
			})
		}
		if r.tr != nil {
			// One clear-pass instant per pass, tagged with the number of
			// re-scanned heights.
			r.tr.InstantArg(r.otrack, r.nClear, r.sched.Now(), uint64(len(seen)))
		}
	})
}

// --- helpers -----------------------------------------------------------------

func (r *Relayer) track(key metrics.PacketKey, step metrics.Step, at time.Duration) {
	if r.cfg.Tracker != nil {
		r.cfg.Tracker.Record(key, step, at)
	}
}

// keyOf identifies a packet originating on src.
func (r *Relayer) keyOf(src *endpoint, p ibc.Packet) metrics.PacketKey {
	return metrics.PacketKey{SrcChain: src.chain.ID, Channel: p.SourceChannel, Sequence: p.Sequence}
}

// keyOfMsg identifies the packet of an outgoing message submitted to dst.
func (r *Relayer) keyOfMsg(dst *endpoint, m outMsg) metrics.PacketKey {
	switch m.msg.(type) {
	case ibc.MsgRecvPacket:
		return r.keyOf(r.counterpartOf(dst), m.packet)
	default: // acks and timeouts land on the packet's source chain
		return r.keyOf(dst, m.packet)
	}
}

func containsRedundant(log string) bool {
	return strings.Contains(log, "redundant")
}
