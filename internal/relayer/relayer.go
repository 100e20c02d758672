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
	// Abandoned counts messages given up (released with their batch, or
	// dropped by a failed batch's retry) while the chains' committed
	// state said they could still land. Only a clearing pass, if the
	// relayer runs one, brings such a message back. A fault such as a
	// relayer pause makes it nonzero; it is left out of result documents,
	// which keep the bytes they had before it was counted.
	Abandoned uint64 `json:"-"`
}

// endpoint is one Chain Endpoint (Fig. 4): the relayer's view of and
// submission pipeline into one chain.
type endpoint struct {
	r        *Relayer
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

	pulls pulls

	// Batch-build freelists: the fresh-packet/ack staging slices live
	// only until the build closure consumes them, so steady-state
	// clearing passes reuse them instead of allocating per block.
	// clearSeen is the clear pass's height-dedupe scratch map, reused
	// likewise.
	pktBuf    [][]*ibc.Packet
	ackBuf    [][]*ibc.AckWrite
	clearSeen map[int64]bool
	// updates is the chunk client-update messages are cut from: a
	// submitted transaction keeps its messages, and nothing writes them.
	updates app.Chunk[ibc.MsgUpdateClient]

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
	r.pulls.r = r
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
	r.a = &endpoint{r: r, chain: pair.A, rpc: pair.A.AddRPCNode(fullNodeClientTimeout), clientID: pair.ClientOnA, channel: pair.ChannelAB, account: acctA, clientHeights: make(map[int64]bool)}
	r.b = &endpoint{r: r, chain: pair.B, rpc: pair.B.AddRPCNode(fullNodeClientTimeout), clientID: pair.ClientOnB, channel: pair.ChannelBA, account: acctB, clientHeights: make(map[int64]bool)}
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
	r.a.rpc.Subscribe(r.host, r.a)
	r.b.rpc.Subscribe(r.host, r.b)
}

// OnFrame is the Supervisor's subscription to e's chain.
func (e *endpoint) OnFrame(f *rpc.EventFrame) { e.r.onFrame(e, e.r.counterpartOf(e), f) }

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
	// Message extraction: a block with no packet of our channel (on a
	// multi-channel chain, packets of other links are someone else's) is
	// no work.
	if !slices.ContainsFunc(be.Txs, func(te *eventindex.TxEvents) bool {
		return len(te.SendPackets(src.channel)) > 0 || len(te.Acks(src.channel)) > 0
	}) {
		return
	}
	parse := simconf.RelayerSchedulingOverheadPerBatch + time.Duration(be.MsgCount)*simconf.RelayerEventParseCostPerMsg
	r.cpu.Submit(parse, func() {
		now := r.sched.Now()
		// The scan span covers the charged parse service time.
		r.tr.CompleteArg(r.otrack, r.nScan, now-parse, now, uint64(be.MsgCount))
		// Record extraction + confirmation for every packet seen.
		for _, te := range be.Txs {
			for _, p := range te.SendPackets(src.channel) {
				key := r.keyOf(src, p)
				r.track(key, metrics.StepTransferExtraction, now)
				r.track(key, metrics.StepTransferConfirmation, now)
			}
		}
		for _, te := range be.Txs {
			for _, w := range te.Acks(src.channel) {
				dst.packets.row(w.Packet.Sequence).received()
				key := r.keyOf(dst, &w.Packet) // packet's source is the counterparty
				r.track(key, metrics.StepRecvExtraction, now)
				// The event subscription confirms commitment too; the
				// polling path below is a fallback (first write wins).
				r.track(key, metrics.StepRecvConfirmation, now)
			}
		}
		// Data pulls: one heavy query per tx with packets of our channel,
		// serial on the source RPC.
		for _, te := range be.Txs {
			if len(te.SendPackets(src.channel)) > 0 {
				r.pulls.push(pullJob{src: src, dst: dst, te: te})
			}
		}
		for _, te := range be.Txs {
			if len(te.Acks(src.channel)) > 0 {
				r.pulls.push(pullJob{src: src, dst: dst, te: te, ack: true})
			}
		}
	})
}

// pullJob is one queued data pull: a source tx whose indexed records
// build a batch of recvs (ack: acks) for dst once the pull is answered.
type pullJob struct {
	src, dst *endpoint
	te       *eventindex.TxEvents
	ack      bool
}

// pulls is the relayer's serial data-pull queue: Hermes issues its
// heavy queries one at a time and waits for each response (§IV-B),
// retrying on timeouts. The response payload itself is already decoded
// in the event index; a pull pays the wire and service cost, and its
// batch is built from the indexed records. The queue is the handler of
// the running pull's reply and of its retry timer.
type pulls struct {
	r       *Relayer
	queue   []pullJob
	head    int
	cur     pullJob
	attempt int
	running bool
}

// push queues a pull and starts it if none is running.
func (q *pulls) push(j pullJob) {
	q.queue = append(q.queue, j)
	q.next()
}

// next starts the oldest queued pull, unless one is running.
func (q *pulls) next() {
	if q.running || q.head == len(q.queue) {
		return
	}
	q.running = true
	q.cur, q.attempt = q.queue[q.head], 0
	q.queue[q.head] = pullJob{}
	if q.head++; q.head == len(q.queue) {
		q.queue, q.head = q.queue[:0], 0
	}
	q.pull()
}

// pull queries the running job's tx, or drops the job once the relayer
// stopped or its retries ran out.
func (q *pulls) pull() {
	if q.r.stopped || q.attempt > 10 {
		q.done()
		return
	}
	q.cur.src.rpc.QueryTxData(q.r.host, q.cur.te.Info.Tx.Hash(), q)
}

// OnTx builds the running job's batch, or retries a failed pull after a
// poll interval.
func (q *pulls) OnTx(_ *store.TxInfo, err error) {
	r := q.r
	if r.stopped {
		q.done()
		return
	}
	if err != nil {
		r.sched.AfterHandler(simconf.RelayerConfirmPollInterval, q)
		return
	}
	if j := q.cur; j.ack {
		r.buildAckBatch(j.src, j.dst, j.te)
	} else {
		r.buildRecvBatch(j.src, j.dst, j.te)
	}
	q.done()
}

// Fire retries the running pull.
func (q *pulls) Fire() {
	q.attempt++
	q.pull()
}

// done ends the running pull and starts the next.
func (q *pulls) done() {
	q.running, q.cur = false, pullJob{}
	q.next()
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
	proofHeight := proofHeightOn(dstChain, dstChain.height)
	full := dstChain.chain.App.State().FullProofs()
	var probes []rpc.SettledProbe
	var due []*ibc.Packet // full proofs: the packets to time out, with their proofs
	var proofs []*merkle.RecordProof
	var kb [app.KeyBufLen]byte
	t := &srcChain.packets
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
	dstChain.rpc.QuerySettled(r.host, probes, &timeoutProbe{src: srcChain, probes: probes, proofHeight: proofHeight})
}

// timeoutProbe is checkTimeouts' batched receipt probe of the expired
// packets sourced on src, and the handler of its reply.
type timeoutProbe struct {
	src         *endpoint
	probes      []rpc.SettledProbe
	proofHeight int64
}

// OnSettled times out each probed packet found without a receipt.
func (tp *timeoutProbe) OnSettled(settled []bool, err error) {
	r := tp.src.r
	due := make([]*ibc.Packet, 0, len(tp.probes))
	for i, probe := range tp.probes {
		ok := err == nil && i < len(settled) && !r.stopped
		if row := tp.src.packets.row(probe.Sequence); row.timeoutProbed(ok, ok && settled[i]) {
			due = append(due, row.p)
		}
	}
	r.queueTimeouts(tp.src, due, nil, tp.proofHeight)
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
	f := r.nextFlight(dst)
	if f == nil {
		dst.flushing = false
		return
	}
	f.submit()
}

// nextFlight takes the next batch off dst's outbox as a transaction to
// submit, or returns nil when no message can go yet: three objects, the
// batch, its message list and the flight.
func (r *Relayer) nextFlight(dst *endpoint) *flight {
	if r.stopped || len(dst.outbox) == 0 {
		return nil
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
		return nil
	}
	f := &flight{dst: dst, batch: append([]outMsg(nil), dst.outbox[:n]...)}
	dst.outbox = append(dst.outbox[:0], dst.outbox[n:]...)

	// Prepend a client update for every distinct proof height the batch
	// needs that the client has no consensus state for yet. A live flow
	// needs at most one (heights arrive in order); a backlog-clearing
	// batch spans several historical blocks and needs one per height.
	// The advance is optimistic: a failed transaction reverts its
	// updates, so the submission path rolls the local view back.
	f.upd = f.updBuf[:0]
	for _, m := range f.batch {
		if m.kind() == kindRecv {
			src.packets.row(m.packet.Sequence).submitted()
		}
		h := m.proofHeight
		if h <= 0 || dst.clientHeights[h] {
			continue
		}
		dst.clientHeights[h] = true
		f.upd = append(f.upd, h)
	}
	slices.Sort(f.upd)
	f.msgs = make([]app.Msg, 0, n+len(f.upd))
	for _, h := range f.upd {
		// dst's client of src is updated with the signed header in src's
		// store.
		if blk, err := src.chain.Store.Block(h); err == nil {
			u := r.updates.New()
			*u = ibc.MsgUpdateClient{ClientID: dst.clientID, Bundle: ibc.HeaderBundle{Header: blk.Block.Header, Commit: blk.Commit}}
			f.msgs = append(f.msgs, u)
		}
	}
	for _, m := range f.batch {
		f.msgs = append(f.msgs, m.msg)
	}
	return f
}

// rollbackClient undoes the optimistic client-update advances upd of a
// reverted transaction: its MsgUpdateClients never stored a consensus
// state.
func (r *Relayer) rollbackClient(dst *endpoint, upd []int64) {
	for _, h := range upd {
		delete(dst.clientHeights, h)
	}
}

// flight is one relayer transaction from its first broadcast to its
// confirmation or release: the handler of its broadcast reply, of its
// sequence re-query, of its backoff and poll timers and of its QueryTx
// replies, one at a time.
type flight struct {
	dst   *endpoint
	msgs  []app.Msg
	batch []outMsg
	// upd holds the client-update heights it advanced, in updBuf when
	// they fit (a live flow advances one).
	upd    []int64
	updBuf [2]int64
	tx     *app.Tx
	// attempt counts the broadcasts retried, polls the confirmation
	// polls answered "not found".
	attempt, polls int
	subStart       time.Duration
	// polling: the timer polls for confirmation; else it resubmits.
	polling bool
}

// submit broadcasts the transaction, handling sequence initialization;
// a relayer stopped mid-submission abandons the batch like the
// confirmation path does, so a post-resume clearing pass can rebuild it.
func (f *flight) submit() {
	dst := f.dst
	r := dst.r
	if r.stopped {
		dst.flushing = false
		r.releaseBatch(dst, f.batch, f.upd)
		return
	}
	if !dst.seqInit {
		dst.rpc.QueryAccountSequence(r.host, dst.account, f)
		return
	}
	f.tx = app.NewTx(dst.account, dst.seq, uint64(r.rng.Int63n(1<<62)), f.msgs)
	r.stats.TxsSubmitted++
	f.subStart = r.sched.Now()
	dst.rpc.BroadcastTxSync(r.host, f.tx, f)
}

// OnSequence initializes the account sequence and submits, or retries
// the query after a poll interval.
func (f *flight) OnSequence(seq uint64, err error) {
	if err != nil {
		f.dst.r.sched.AfterHandler(simconf.RelayerConfirmPollInterval, f)
		return
	}
	f.dst.seq = seq
	f.dst.seqInit = true
	f.submit()
}

// OnBroadcast starts confirmation polling for an accepted transaction
// and pipelines the next batch. A sequence mismatch re-reads the account
// sequence; a full mempool, an RPC timeout or a partitioned path backs
// off. Either retries, then gives the batch up to a later clearing pass.
func (f *flight) OnBroadcast(err error) {
	dst := f.dst
	r := dst.r
	if err == nil {
		dst.seq++
		now := r.sched.Now()
		r.tr.CompleteArg(r.otrack, r.nSubmit, f.subStart, now, uint64(len(f.batch)))
		for _, m := range f.batch {
			r.track(r.keyOf(r.sourceOf(dst, m), m.packet), m.step(), now)
		}
		f.polling = true
		f.confirm()
		// Pipeline: submit the next batch immediately.
		r.flushNext(dst)
		return
	}
	backoff := 5 * simconf.RelayerConfirmPollInterval
	if errors.Is(err, app.ErrSequenceMismatch) {
		r.stats.SeqMismatchErrors++
		dst.seqInit = false
		backoff = simconf.RelayerConfirmPollInterval
	}
	if f.attempt < 5 {
		r.stats.Retries++
		f.attempt++
		r.sched.AfterHandler(backoff, f)
		return
	}
	r.stats.TxsFailed++
	r.releaseBatch(dst, f.batch, f.upd)
	r.flushNext(dst)
}

// confirm polls for the transaction's commitment one poll interval from
// now, or gives the batch up after confirmAttempts polls.
func (f *flight) confirm() {
	r := f.dst.r
	if f.polls >= confirmAttempts || r.stopped {
		r.stats.TxsFailed++
		r.releaseBatch(f.dst, f.batch, f.upd)
		return
	}
	r.sched.AfterHandler(simconf.RelayerConfirmPollInterval, f)
}

// Fire polls for confirmation, or resubmits after a backoff.
func (f *flight) Fire() {
	if f.polling {
		f.dst.rpc.QueryTx(f.dst.r.host, f.tx.Hash(), f)
		return
	}
	f.submit()
}

// OnTx records a committed transaction's confirmation steps, or handles
// its failure (with two relayers typically "packet messages are
// redundant"); a pending one is polled again.
func (f *flight) OnTx(info *store.TxInfo, err error) {
	if err != nil {
		f.polls++
		f.confirm()
		return
	}
	dst := f.dst
	r := dst.r
	now := r.sched.Now()
	if info.Result.IsOK() {
		for _, m := range f.batch {
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
	r.stats.TxsFailed++
	r.rollbackClient(dst, f.upd)
	if strings.Contains(info.Result.Log, "redundant") {
		r.stats.RedundantErrors++
	}
	// Retry each message once: a partially redundant batch reverts its
	// legitimate messages too. Messages whose packet another relayer
	// already settled on chain are filtered out first (Hermes re-queries
	// unreceived_packets before rebuilding), so a backlog-clearing batch
	// colliding with prior deliveries still lands its fresh messages on
	// the retry.
	r.retryUnsettled(dst, f.batch)
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
			r.abandon(dst, m)
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
	dst.rpc.QuerySettled(r.host, probes, &retryProbe{dst: dst, candidates: candidates})
}

// retryProbe is retryUnsettled's settlement probe of a failed batch's
// candidates for a retry on dst, and the handler of its reply.
type retryProbe struct {
	dst        *endpoint
	candidates []outMsg
}

// OnSettled queues each unsettled candidate once more.
func (rp *retryProbe) OnSettled(settled []bool, err error) {
	dst := rp.dst
	r := dst.r
	queued := len(dst.outbox)
	for i, m := range rp.candidates {
		ok := err == nil && i < len(settled) && settled[i]
		if r.rowOf(dst, m).probed(m.kind(), ok, !r.stopped) {
			dst.outbox = append(dst.outbox, m)
		} else if !ok {
			r.abandon(dst, m)
		}
	}
	if len(dst.outbox) > queued {
		r.tryFlush(dst)
	}
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
		r.abandon(dst, m)
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

// abandon counts m, submitted to dst and given up, if it could still
// land. The truth comes from the chains' committed state, as the full
// nodes' settlement probes read it, and decides nothing: the packet's
// source holds its commitment, and a recv finds no receipt on the
// destination and its timeout not passed there, a timeout no receipt
// and its timeout passed; an ack needs no more.
func (r *Relayer) abandon(dst *endpoint, m outMsg) {
	p := m.packet
	src := r.sourceOf(dst, m)
	dest := r.counterpartOf(src).chain
	var b [app.KeyBufLen]byte
	if rec := ibc.PacketRecords(b[:0], app.Commitment, p.SourcePort, p.SourceChannel); !src.chain.App.State().HasRecord(&rec, p.Sequence) {
		return
	}
	if k := m.kind(); k != kindAck {
		rec := ibc.PacketRecords(b[:0], app.Receipt, p.DestPort, p.DestChannel)
		if dest.App.State().HasRecord(&rec, p.Sequence) || dest.TimeoutElapsed(p) != (k == kindTimeout) {
			return
		}
	}
	r.stats.Abandoned++
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
			src.rpc.QueryBlockEvents(r.host, h, &clearQuery{src: src, dst: dst, h: h})
		}
		// One clear-pass instant per pass, tagged with the number of
		// re-scanned heights.
		r.tr.InstantArg(r.otrack, r.nClear, r.sched.Now(), uint64(len(seen)))
	})
}

// clearQuery is a clearing pass's query of height h of src, and the
// handler of its reply.
type clearQuery struct {
	src, dst *endpoint
	h        int64
}

// OnBlockEvents re-scans the height, or puts it back on the list.
func (q *clearQuery) OnBlockEvents(be *eventindex.BlockEvents, err error) {
	src, dst, h := q.src, q.dst, q.h
	r := src.r
	if src.querying[h]--; src.querying[h] == 0 {
		delete(src.querying, h)
	}
	if err != nil {
		// A lost query or reply: nothing else would ever re-scan this
		// height, so it goes back on the list for another pass. A node
		// that answers but does not have the height will not have it next
		// time either.
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
