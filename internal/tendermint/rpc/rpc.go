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

	subs []subscriber

	broadcasts, queries, frameErrors uint64
}

type subscriber struct {
	host netem.Host
	fn   func(*EventFrame)
}

// New creates the RPC server for a chain. Its service costs are the
// calibrated simconf model; clientTimeout bounds how long callers wait
// for a reply.
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

// request runs fn on the serial resource after the client->server hop,
// then delivers the reply after the server->client hop. A client-side
// timeout aborts waiting (the server still does the work); a reply that
// arrives first cancels the timeout, so an answered request leaves
// nothing queued.
//
// The service cost is resolved on the server at arrival time, from the
// store as it is then. The timeout and the reply touch only the call's
// own state.
func request[T any](s *Server, from netem.Host, service func() time.Duration, fn func() (T, error), cb func(T, error)) {
	c := &call[T]{s: s, from: from, service: service, fn: fn, cb: cb}
	c.timer = s.sched.AfterHandler(s.clientTimeout, (*callTimeout[T])(c))
	s.net.SendHandler(from, s.host, c)
}

// call is one request in flight: the single allocation of a request,
// holding what the hops, the service and the timeout share. It is the
// handler of its own hops, which run one after another (stage), and,
// converted to callTimeout, of its timeout, which races them.
type call[T any] struct {
	s       *Server
	from    netem.Host
	service func() time.Duration
	fn      func() (T, error)
	cb      func(T, error)
	timer   sim.Timer
	stage   callStage
	done    bool
	v       T
	err     error
}

// callStage is the hop a call's next Fire ends.
type callStage uint8

const (
	stageArrive callStage = iota // client -> server: queue on the serial resource
	stageServe                   // service done: compute the reply, send it back
	stageReply                   // server -> client: call back
)

// Fire ends the call's current hop and starts the next.
func (c *call[T]) Fire() {
	switch c.stage {
	case stageArrive:
		c.stage = stageServe
		c.s.serial.SubmitHandler(c.service(), c)
	case stageServe:
		c.v, c.err = c.fn()
		c.stage = stageReply
		c.s.net.SendHandler(c.s.host, c.from, c)
	case stageReply:
		c.finish(c.v, c.err)
	}
}

// callTimeout is a call seen as the handler of its client-side timeout.
type callTimeout[T any] call[T]

// Fire expires the call, unless its reply came first.
func (t *callTimeout[T]) Fire() {
	var zero T
	(*call[T])(t).finish(zero, ErrTimeout)
}

// finish calls back once, with whichever of the reply and the timeout
// came first, and unschedules the timeout.
func (c *call[T]) finish(v T, err error) {
	if c.done {
		return
	}
	c.done = true
	c.s.sched.Cancel(c.timer)
	c.cb(v, err)
}

// Flat service costs, as top-level funcs so passing one allocates
// nothing.
func broadcastCost() time.Duration { return simconf.BroadcastTxCost }
func statusCost() time.Duration    { return simconf.StatusQueryCost }

// BroadcastTxSync submits a transaction: it is accepted into the mempool
// (after CheckTx) or rejected. The reply carries the CheckTx error.
func (s *Server) BroadcastTxSync(from netem.Host, tx types.Tx, cb func(error)) {
	s.broadcasts++
	request(s, from, broadcastCost, func() (struct{}, error) {
		return struct{}{}, s.pool.Add(tx)
	}, func(_ struct{}, err error) {
		if cb != nil {
			cb(err)
		}
	})
}

// QueryTx checks whether a transaction is committed (light confirmation
// query; returns ErrNotFound while pending).
func (s *Server) QueryTx(from netem.Host, hash types.Hash, cb func(*store.TxInfo, error)) {
	s.queries++
	request(s, from, statusCost, func() (*store.TxInfo, error) {
		info, err := s.stor.Tx(hash)
		if err != nil {
			return nil, ErrNotFound
		}
		return info, nil
	}, cb)
}

// QueryTxData is the heavy data pull: it returns the full transaction
// with a service time proportional to the response size. This is the
// operation behind 69% of the paper's cross-chain processing time.
func (s *Server) QueryTxData(from netem.Host, hash types.Hash, cb func(*store.TxInfo, error)) {
	s.queries++
	request(s, from, func() time.Duration {
		// Costed server-side at arrival: callers pull data for committed
		// transactions, so the lookup resolves the same tx it would have
		// at the client's call time.
		info, lookupErr := s.stor.Tx(hash)
		if lookupErr != nil || s.txQueryCost == nil {
			return simconf.StatusQueryCost
		}
		return time.Duration(float64(s.txQueryCost(info.Tx)) * s.pageFactor(info.Height))
	}, func() (*store.TxInfo, error) {
		got, err := s.stor.Tx(hash)
		if err != nil {
			return nil, ErrNotFound
		}
		return got, nil
	}, cb)
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
func (s *Server) QueryBlockEvents(from netem.Host, height int64, cb func(*eventindex.BlockEvents, error)) {
	s.queries++
	request(s, from, func() time.Duration { return s.blockQueryCost(height) }, func() (*eventindex.BlockEvents, error) {
		if s.events == nil {
			return nil, ErrNotFound
		}
		be := s.events(height)
		if be == nil {
			return nil, ErrNotFound
		}
		return be, nil
	}, cb)
}

// QueryAccountSequence resolves an account's committed sequence.
func (s *Server) QueryAccountSequence(from netem.Host, account string, cb func(uint64, error)) {
	s.queries++
	request(s, from, statusCost, func() (uint64, error) {
		if s.accountSeq == nil {
			return 0, ErrNotFound
		}
		return s.accountSeq(account)
	}, cb)
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
// multi-query round trip).
func (s *Server) QuerySettled(from netem.Host, probes []SettledProbe, cb func([]bool, error)) {
	s.queries++
	request(s, from, statusCost, func() ([]bool, error) {
		if s.settled == nil {
			return nil, ErrNotFound
		}
		out := make([]bool, len(probes))
		for i, p := range probes {
			out[i] = s.settled(p)
		}
		return out, nil
	}, cb)
}

// Subscribe registers a WebSocket NewBlock subscription from a host.
// The registration rides the network like a real subscription request
// and takes effect one client->server hop later.
func (s *Server) Subscribe(from netem.Host, fn func(*EventFrame)) {
	s.net.Send(from, s.host, func() {
		s.subs = append(s.subs, subscriber{host: from, fn: fn})
	})
}

// PublishBlock pushes a committed block to subscribers. Call from the
// consensus engine's OnCommit hook.
func (s *Server) PublishBlock(cb *store.CommittedBlock) {
	if len(s.subs) == 0 {
		return
	}
	frameBytes := 0
	if s.eventFrameBytes != nil {
		frameBytes = s.eventFrameBytes(cb.Block.Data)
	}
	frame := &EventFrame{
		Height:     cb.Block.Header.Height,
		BlockTime:  cb.Block.Header.Time,
		FrameBytes: frameBytes,
	}
	if frameBytes > simconf.WebSocketMaxFrameBytes {
		s.frameErrors++
		frame.Err = ErrFrameTooLarge
	} else {
		// The block is already appended (commit hooks fire post-append),
		// so the store's cached materialization and the chain's shared
		// event index are both available — no per-server re-decode. A
		// missing height is a hook-ordering bug, not a degraded frame.
		infos, err := s.stor.TxsAtHeight(cb.Block.Header.Height)
		if err != nil {
			panic(fmt.Sprintf("rpc %s: publishing height %d before store append: %v",
				s.host, cb.Block.Header.Height, err))
		}
		frame.Txs = infos
		if s.events != nil {
			frame.Events = s.events(cb.Block.Header.Height)
		}
	}
	for _, sub := range s.subs {
		sub := sub
		s.net.Send(s.host, sub.host, func() { sub.fn(frame) })
	}
}
