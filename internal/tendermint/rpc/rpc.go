// Package rpc models the Tendermint RPC service of the primary full
// node, reproducing the paper's two central service-level findings:
//
//   - Queries are processed one at a time: "Tendermint is unable to
//     process queries in parallel, requiring the relayer to wait while
//     its requests for data are processed one by one" (§IV-B). All
//     request kinds — broadcasts, confirmations and data pulls — share a
//     single serial resource, which is why high submission rates also
//     degrade confirmation queries (Table I's failure modes).
//
//   - WebSocket NewBlock event frames are capped at 16 MiB; larger
//     frames fail with the relayer-visible "Failed to collect events"
//     error (§V), leaving pending transfers stuck.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"ibcbench/internal/eventindex"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
)

// Service errors.
var (
	// ErrTimeout reports a client-side RPC deadline expiry
	// (the relayer logs these as "failed tx: no confirmation").
	ErrTimeout = errors.New("rpc: request timed out")
	// ErrFrameTooLarge is the WebSocket overflow: the paper's
	// "Failed to collect events" condition.
	ErrFrameTooLarge = errors.New("rpc: failed to collect events: websocket frame exceeds 16MiB")
	// ErrNotFound reports a missing tx/block.
	ErrNotFound = errors.New("rpc: not found")
)

// EventFrame is one NewBlock notification delivered to subscribers.
type EventFrame struct {
	Height     int64
	BlockTime  time.Duration
	Txs        []*store.TxInfo
	FrameBytes int
	// Events is the chain's shared event index for this block: decoded
	// once at commit time and served by reference, so K subscribed
	// relayers share a single scan. Nil on error frames (events were not
	// collected) and on servers without an index source.
	Events *eventindex.BlockEvents
	// Err is ErrFrameTooLarge when the frame exceeded the limit; the
	// Txs slice is then nil (events were not collected).
	Err error
}

// Server is the RPC endpoint of one chain's primary full node.
type Server struct {
	sched *sim.Scheduler
	net   *netem.Network
	host  netem.Host
	// clientTimeout bounds how long callers wait for a response.
	clientTimeout time.Duration

	stor *store.Store
	pool *mempool.Pool

	// serial is the single-threaded query processor.
	serial *sim.SerialResource

	// txQueryCost models response-size-proportional data-pull times.
	txQueryCost func(types.Tx) time.Duration
	// eventFrameBytes sizes a block's WebSocket event frame.
	eventFrameBytes func([]types.Tx) int
	// accountSeq resolves committed account sequences (auth queries).
	accountSeq func(string) (uint64, error)
	// msgCount counts messages in a tx, for pagination scaling.
	msgCount func(types.Tx) int
	// events resolves the chain's shared event index at a height (may be
	// nil on servers assembled without an index source).
	events func(int64) *eventindex.BlockEvents
	// settled resolves packet-settlement probes against committed app
	// state (installed by the owning chain; nil rejects QuerySettled).
	settled func(SettledProbe) bool

	// feed is the NewBlock frame this server shares with the other full
	// nodes of its chain.
	feed *Feed
	subs []*subscription

	// free holds calls whose last event has fired, for reuse.
	free []*call

	broadcasts, queries, frameErrors uint64
}

// New creates the RPC server for a chain. Its service costs are the
// calibrated simconf model; clientTimeout bounds how long callers wait
// for a reply. The full nodes of one chain pass one feed, so each
// block's frame is built once for all of them.
func New(
	sched *sim.Scheduler,
	net *netem.Network,
	host netem.Host,
	clientTimeout time.Duration,
	stor *store.Store,
	pool *mempool.Pool,
	txQueryCost func(types.Tx) time.Duration,
	eventFrameBytes func([]types.Tx) int,
	accountSeq func(string) (uint64, error),
	msgCount func(types.Tx) int,
	events func(int64) *eventindex.BlockEvents,
	feed *Feed,
) *Server {
	return &Server{
		sched:           sched,
		net:             net,
		host:            host,
		clientTimeout:   clientTimeout,
		stor:            stor,
		pool:            pool,
		serial:          sim.NewSerialResource(sched),
		txQueryCost:     txQueryCost,
		eventFrameBytes: eventFrameBytes,
		accountSeq:      accountSeq,
		msgCount:        msgCount,
		events:          events,
		feed:            feed,
	}
}

// pageFactor scales a data pull by the response size of its block:
// (1 + (blockMsgs/QueryPageScaleMsgs)^2), the paper's observation that
// large blocks return hundreds of thousands of output lines across
// multiple pages whose cost grows superlinearly (§V).
func (s *Server) pageFactor(height int64) float64 {
	if s.msgCount == nil {
		return 1
	}
	infos, err := s.stor.TxsAtHeight(height)
	if err != nil {
		return 1
	}
	total := 0
	for _, info := range infos {
		total += s.msgCount(info.Tx)
	}
	x := float64(total) / simconf.QueryPageScaleMsgs
	return 1 + x*x
}

// BusyTime reports accumulated serial service time.
func (s *Server) BusyTime() time.Duration { return s.serial.BusyTime() }

// Stats reports (broadcasts, queries, frameErrors).
func (s *Server) Stats() (uint64, uint64, uint64) {
	return s.broadcasts, s.queries, s.frameErrors
}

// SetSettledQuery installs the packet-settlement resolver backing
// QuerySettled. The owning chain wires it at assembly time.
func (s *Server) SetSettledQuery(fn func(SettledProbe) bool) { s.settled = fn }

// Reply handlers. A request's caller passes a handler it owns, usually
// a pointer to a record it keeps anyway, which converts to the interface
// without an allocation. The handler is called once per request, with
// the reply or with ErrTimeout and a zero value, whichever comes first;
// a nil handler is not called.
type (
	// BroadcastHandler receives BroadcastTxSync's CheckTx result.
	BroadcastHandler interface{ OnBroadcast(err error) }
	// TxHandler receives QueryTx's and QueryTxData's transaction.
	TxHandler interface {
		OnTx(info *store.TxInfo, err error)
	}
	// BlockEventsHandler receives QueryBlockEvents' decoded block.
	BlockEventsHandler interface {
		OnBlockEvents(be *eventindex.BlockEvents, err error)
	}
	// SequenceHandler receives QueryAccountSequence's sequence.
	SequenceHandler interface{ OnSequence(seq uint64, err error) }
	// SettledHandler receives QuerySettled's verdicts, one per probe.
	SettledHandler interface {
		OnSettled(settled []bool, err error)
	}
	// FrameHandler receives a subscription's NewBlock frames.
	FrameHandler interface{ OnFrame(f *EventFrame) }
)

// callKind is what a request asks: it picks the service cost, the reply
// and the handler type.
type callKind uint8

const (
	callBroadcast callKind = iota
	callTx
	callTxData
	callBlockEvents
	callSequence
	callSettled
)

// call is one request in flight, holding its arguments, its reply and
// the caller's handler. It is the handler of its own hops, which run one
// after another (stage), and, converted to callTimeout, of its client
// timeout, which races them. A call goes back on the server's free list
// at its last event: once the caller has its answer and neither the
// timeout nor a hop is still queued, so a reply that lands after the
// timeout finds the call it belongs to, never a later request's.
type call struct {
	s      *Server
	from   netem.Host
	kind   callKind
	stage  callStage
	done   bool // the handler was called
	armed  bool // the client timeout is queued
	queued bool // the current hop (or the service) is queued
	timer  sim.Timer

	// Arguments, by kind.
	hash    types.Hash
	height  int64
	tx      types.Tx
	account string
	probes  []SettledProbe
	h       any // the handler for the kind's reply

	// Reply, by kind.
	info    *store.TxInfo
	be      *eventindex.BlockEvents
	seq     uint64
	settled []bool
	err     error
}

// callStage is the hop a call's next Fire ends.
type callStage uint8

const (
	stageArrive callStage = iota // client -> server: queue on the serial resource
	stageServe                   // service done: compute the reply, send it back
	stageReply                   // server -> client: call back
)

// newCall takes a call of the given kind for a request from a host,
// from the free list or new.
func (s *Server) newCall(kind callKind, from netem.Host, h any) *call {
	c := pop(&s.free)
	if c == nil {
		c = &call{s: s}
	}
	c.kind, c.from, c.h = kind, from, h
	return c
}

// send starts c: it arms the client timeout, then sends the request over
// the client->server hop. The server resolves the service cost and the
// reply at arrival and at service completion, from the store as it is
// then.
func (s *Server) send(c *call) {
	c.timer = s.sched.AfterHandler(s.clientTimeout, (*callTimeout)(c))
	c.armed = true
	c.queued = s.net.SendHandler(c.from, s.host, c)
}

// Fire ends the call's current hop and starts the next.
func (c *call) Fire() {
	c.queued = false
	switch c.stage {
	case stageArrive:
		c.stage = stageServe
		c.queued = true
		c.s.serial.SubmitHandler(c.cost(), c)
	case stageServe:
		c.serve()
		c.stage = stageReply
		c.queued = c.s.net.SendHandler(c.s.host, c.from, c)
	case stageReply:
		c.finish(false)
	}
	c.release()
}

// callTimeout is a call seen as the handler of its client-side timeout.
type callTimeout call

// Fire expires the call, unless its reply came first.
func (t *callTimeout) Fire() {
	c := (*call)(t)
	c.armed = false
	c.finish(true)
	c.release()
}

// finish calls back once, with whichever of the reply and the timeout
// came first, and unschedules the timeout.
func (c *call) finish(timedOut bool) {
	if c.done {
		return
	}
	c.done = true
	if c.armed {
		c.s.sched.Cancel(c.timer)
		c.armed = false
	}
	if c.h == nil {
		return
	}
	if timedOut {
		c.info, c.be, c.seq, c.settled, c.err = nil, nil, 0, nil, ErrTimeout
	}
	switch c.kind {
	case callBroadcast:
		c.h.(BroadcastHandler).OnBroadcast(c.err)
	case callTx, callTxData:
		c.h.(TxHandler).OnTx(c.info, c.err)
	case callBlockEvents:
		c.h.(BlockEventsHandler).OnBlockEvents(c.be, c.err)
	case callSequence:
		c.h.(SequenceHandler).OnSequence(c.seq, c.err)
	case callSettled:
		c.h.(SettledHandler).OnSettled(c.settled, c.err)
	}
}

// release puts the call on the free list once nothing can reach it any
// more: answered, its timeout unscheduled or fired, no hop queued.
func (c *call) release() {
	if !c.done || c.armed || c.queued {
		return
	}
	s := c.s
	*c = call{s: s}
	s.free = append(s.free, c)
}

// cost is the call's service time, resolved at arrival.
func (c *call) cost() time.Duration {
	s := c.s
	switch c.kind {
	case callBroadcast:
		return simconf.BroadcastTxCost
	case callTxData:
		// Callers pull data for committed transactions, so the lookup
		// resolves the same tx it would have at the client's call time.
		info, err := s.stor.Tx(c.hash)
		if err != nil || s.txQueryCost == nil {
			return simconf.StatusQueryCost
		}
		return time.Duration(float64(s.txQueryCost(info.Tx)) * s.pageFactor(info.Height))
	case callBlockEvents:
		return s.blockQueryCost(c.height)
	}
	return simconf.StatusQueryCost
}

// serve computes the call's reply when its service completes.
func (c *call) serve() {
	s := c.s
	switch c.kind {
	case callBroadcast:
		c.err = s.pool.Add(c.tx)
	case callTx, callTxData:
		info, err := s.stor.Tx(c.hash)
		if err != nil {
			c.err = ErrNotFound
			return
		}
		c.info = info
	case callBlockEvents:
		if s.events != nil {
			c.be = s.events(c.height)
		}
		if c.be == nil {
			c.err = ErrNotFound
		}
	case callSequence:
		if s.accountSeq == nil {
			c.err = ErrNotFound
			return
		}
		c.seq, c.err = s.accountSeq(c.account)
	case callSettled:
		if s.settled == nil {
			c.err = ErrNotFound
			return
		}
		c.settled = make([]bool, len(c.probes))
		for i, p := range c.probes {
			c.settled[i] = s.settled(p)
		}
	}
}

// BroadcastTxSync submits a transaction: it is accepted into the mempool
// (after CheckTx) or rejected. The reply carries the CheckTx error.
func (s *Server) BroadcastTxSync(from netem.Host, tx types.Tx, h BroadcastHandler) {
	s.broadcasts++
	c := s.newCall(callBroadcast, from, h)
	c.tx = tx
	s.send(c)
}

// QueryTx checks whether a transaction is committed (light confirmation
// query; returns ErrNotFound while pending).
func (s *Server) QueryTx(from netem.Host, hash types.Hash, h TxHandler) {
	s.queries++
	c := s.newCall(callTx, from, h)
	c.hash = hash
	s.send(c)
}

// QueryTxData is the heavy data pull: it returns the full transaction
// with a service time proportional to the response size. This is the
// operation behind 69% of the paper's cross-chain processing time.
func (s *Server) QueryTxData(from netem.Host, hash types.Hash, h TxHandler) {
	s.queries++
	c := s.newCall(callTxData, from, h)
	c.hash = hash
	s.send(c)
}

// blockQueryCost is the tx_search service cost for one height: the
// light-query floor plus the size-proportional pull cost of every tx.
func (s *Server) blockQueryCost(height int64) time.Duration {
	cost := simconf.StatusQueryCost
	if infos, err := s.stor.TxsAtHeight(height); err == nil && s.txQueryCost != nil {
		pf := s.pageFactor(height)
		for _, info := range infos {
			cost += time.Duration(float64(s.txQueryCost(info.Tx)) * pf)
		}
	}
	return cost
}

// QueryBlockEvents is the relayer's block query (the paper's tx_search
// --events tx.height=X). It costs the full tx_search response
// (blockQueryCost), but the reply is the block's already-decoded
// per-channel packet records from the shared event index, not raw
// transactions to re-parse.
func (s *Server) QueryBlockEvents(from netem.Host, height int64, h BlockEventsHandler) {
	s.queries++
	c := s.newCall(callBlockEvents, from, h)
	c.height = height
	s.send(c)
}

// QueryAccountSequence resolves an account's committed sequence.
func (s *Server) QueryAccountSequence(from netem.Host, account string, h SequenceHandler) {
	s.queries++
	c := s.newCall(callSequence, from, h)
	c.account = account
	s.send(c)
}

// SettledProbe asks whether one packet's lifecycle step has settled on
// this chain: Ack=false probes for a receipt (the packet was received),
// Ack=true probes for a cleared commitment (its acknowledgement or
// timeout was processed on the sending side).
type SettledProbe struct {
	Ack           bool
	Port, Channel string
	Sequence      uint64
}

// QuerySettled resolves a batch of packet-settlement probes against
// committed application state — the relayer's post-failure redundancy
// check, performed over RPC like every other state read a relayer
// makes. One flat status query covers the batch (a single ABCI
// multi-query round trip). The call reads probes when its service
// completes, so the caller leaves them alone until its reply.
func (s *Server) QuerySettled(from netem.Host, probes []SettledProbe, h SettledHandler) {
	s.queries++
	c := s.newCall(callSettled, from, h)
	c.probes = probes
	s.send(c)
}

// Feed is the NewBlock frame the full nodes of one chain share: the
// first of them to publish a block builds its frame, and the others
// deliver the same one. The zero Feed is ready: frames are cut from
// blocks of 64 made as they are needed, and deliveries are reused once
// they fire.
type Feed struct {
	last   *EventFrame
	frames []EventFrame
	free   []*frameSend
}

// pop takes the last entry off a free list, or returns nil.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	v := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return v
}

// frame returns the frame of cb's block, building it on the first
// request.
func (f *Feed) frame(s *Server, cb *store.CommittedBlock) *EventFrame {
	height := cb.Block.Header.Height
	if f.last != nil && f.last.Height == height {
		return f.last
	}
	if len(f.frames) == cap(f.frames) {
		f.frames = make([]EventFrame, 0, 64)
	}
	f.frames = f.frames[:len(f.frames)+1]
	frame := &f.frames[len(f.frames)-1]
	frame.Height, frame.BlockTime = height, cb.Block.Header.Time
	if s.eventFrameBytes != nil {
		frame.FrameBytes = s.eventFrameBytes(cb.Block.Data)
	}
	if frame.FrameBytes > simconf.WebSocketMaxFrameBytes {
		frame.Err = ErrFrameTooLarge
	} else {
		// The block is already appended (commit hooks fire post-append),
		// so the store's cached materialization and the chain's shared
		// event index are both available — no per-server re-decode. A
		// missing height is a hook-ordering bug, not a degraded frame.
		infos, err := s.stor.TxsAtHeight(height)
		if err != nil {
			panic(fmt.Sprintf("rpc %s: publishing height %d before store append: %v", s.host, height, err))
		}
		frame.Txs = infos
		if s.events != nil {
			frame.Events = s.events(height)
		}
	}
	f.last = frame
	return frame
}

// subscription is one registered subscriber, and the handler of its own
// registration hop.
type subscription struct {
	s    *Server
	host netem.Host
	h    FrameHandler
}

// Fire registers the subscription on arrival.
func (sub *subscription) Fire() { sub.s.subs = append(sub.s.subs, sub) }

// frameSend is one frame on its way to one subscriber.
type frameSend struct {
	feed  *Feed
	h     FrameHandler
	frame *EventFrame
}

// Fire delivers the frame and frees the delivery.
func (d *frameSend) Fire() {
	h, frame := d.h, d.frame
	d.free()
	h.OnFrame(frame)
}

// free puts the delivery back on its feed's free list.
func (d *frameSend) free() {
	d.h, d.frame = nil, nil
	d.feed.free = append(d.feed.free, d)
}

// Subscribe registers a WebSocket NewBlock subscription from a host.
// The registration rides the network like a real subscription request
// and takes effect one client->server hop later.
func (s *Server) Subscribe(from netem.Host, h FrameHandler) {
	s.net.SendHandler(from, s.host, &subscription{s: s, host: from, h: h})
}

// PublishBlock pushes a committed block to subscribers. Call from the
// consensus engine's OnCommit hook.
func (s *Server) PublishBlock(cb *store.CommittedBlock) {
	if len(s.subs) == 0 {
		return
	}
	feed := s.feed
	frame := feed.frame(s, cb)
	if frame.Err != nil {
		s.frameErrors++
	}
	for _, sub := range s.subs {
		d := pop(&feed.free)
		if d == nil {
			d = &frameSend{feed: feed}
		}
		d.h, d.frame = sub.h, frame
		if !s.net.SendHandler(s.host, sub.host, d) {
			d.free()
		}
	}
}
