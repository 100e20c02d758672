// Package eventindex is the shared per-chain event index: one pass over
// a committed block's abci.Events groups the packets they carry into
// per-channel runs that every consumer — relayers, trackers and the
// packet-clearing loop — reads instead of walking TxInfo.Result.Events
// itself. The events carry the keeper's own *ibc.Packet and
// *ibc.AckWrite records, so the pass collects those pointers and groups
// them by channel; nothing is parsed or copied. A record is immutable
// once emitted: the index, every relayer and the workload share it, and
// none of them writes through the pointer.
//
// Before this layer existed, every relayer endpoint scanned every
// block's events for its own channel, so a hub chain with K links
// performed K full scans per block. The index is built exactly once per
// commit (see chain.New wiring the IndexBlock hook before any RPC node)
// and served by reference to all subscribers; ScanCount counts the
// passes so tests can assert the scan is O(1) in relayer count.
package eventindex

import (
	"slices"
	"sort"
	"strings"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/tendermint/store"
)

// TxEvents is the per-channel view of one transaction's events, keyed on
// the channel identifiers of the chain that emitted them: send_packet
// records on the packet's source channel, write_acknowledgement records
// on its destination channel.
type TxEvents struct {
	Info *store.TxInfo
	// Sends holds the tx's send_packet records sorted by source channel
	// name, in event order within a channel.
	Sends []*ibc.Packet
	// AckWrites holds the tx's write_acknowledgement records sorted by
	// destination channel name, in event order within a channel.
	AckWrites []*ibc.AckWrite
}

// SendPackets returns the tx's send_packet records for one channel, in
// event order (nil if it has none).
func (te *TxEvents) SendPackets(channel string) []*ibc.Packet {
	return channelRun(te.Sends, channel, func(p *ibc.Packet) string { return p.SourceChannel })
}

// Acks returns the tx's write_acknowledgement records for one channel,
// in event order (nil if it has none).
func (te *TxEvents) Acks(channel string) []*ibc.AckWrite {
	return channelRun(te.AckWrites, channel, func(aw *ibc.AckWrite) string { return aw.Packet.DestChannel })
}

// channelRun returns the run of recs, sorted by chOf, whose channel is
// ch. Its capacity ends with the run, so an append by the caller cannot
// write into the shared index.
func channelRun[T any](recs []T, ch string, chOf func(T) string) []T {
	lo := sort.Search(len(recs), func(i int) bool { return chOf(recs[i]) >= ch })
	hi := lo + sort.Search(len(recs)-lo, func(i int) bool { return chOf(recs[lo+i]) != ch })
	if lo == hi {
		return nil
	}
	return recs[lo:hi:hi]
}

// BlockEvents is the typed index of one committed block.
type BlockEvents struct {
	Height    int64
	BlockTime time.Duration
	// MsgCount is the block's total message count over successful
	// application transactions — the quantity the relayer's calibrated
	// parse-cost model charges for.
	MsgCount int
	// Txs lists, in block order, the transactions that carry IBC packet
	// events. Transactions without packet work are counted in MsgCount
	// but carry no entry.
	Txs []*TxEvents
}

// Decode performs the single pass over one block's transactions.
// Failed transactions are skipped entirely (their partial events are
// invisible to relayers, matching the pre-index behaviour).
func Decode(height int64, blockTime time.Duration, txs []*store.TxInfo) *BlockEvents {
	be := &BlockEvents{Height: height, BlockTime: blockTime}
	for _, info := range txs {
		t, ok := info.Tx.(*app.Tx)
		if !ok || !info.Result.IsOK() {
			continue
		}
		be.MsgCount += len(t.Msgs)
		te := decodeTx(info)
		if te != nil {
			be.Txs = append(be.Txs, te)
		}
	}
	return be
}

// decodeTx collects one transaction's packet records (nil if it has
// none) into slices sized by a counting pass, then groups them by
// channel with a stable sort that a single-channel tx skips.
func decodeTx(info *store.TxInfo) *TxEvents {
	var sends, acks int
	for _, ev := range info.Result.Events {
		switch ev.Type {
		case "send_packet":
			sends++
		case "write_acknowledgement":
			acks++
		}
	}
	if sends+acks == 0 {
		return nil
	}
	te := &TxEvents{Info: info}
	if sends > 0 {
		te.Sends = make([]*ibc.Packet, 0, sends)
	}
	if acks > 0 {
		te.AckWrites = make([]*ibc.AckWrite, 0, acks)
	}
	for _, ev := range info.Result.Events {
		switch ev.Type {
		case "send_packet":
			te.Sends = append(te.Sends, ev.Data.(*ibc.Packet))
		case "write_acknowledgement":
			te.AckWrites = append(te.AckWrites, ev.Data.(*ibc.AckWrite))
		}
	}
	byChannel(te.Sends, func(p *ibc.Packet) string { return p.SourceChannel })
	byChannel(te.AckWrites, func(aw *ibc.AckWrite) string { return aw.Packet.DestChannel })
	return te
}

// byChannel stable-sorts recs by chOf unless they are sorted already.
func byChannel[T any](recs []T, chOf func(T) string) {
	cmp := func(a, b T) int { return strings.Compare(chOf(a), chOf(b)) }
	if !slices.IsSortedFunc(recs, cmp) {
		slices.SortStableFunc(recs, cmp)
	}
}

// Index is the append-only per-chain event index, populated once per
// committed block from the consensus engine's commit hook.
type Index struct {
	blocks []*BlockEvents // index 0 = height 1
	scans  uint64
}

// New returns an empty index for one chain.
func New() *Index { return &Index{} }

// IndexTxs indexes the next committed block from its TxInfos (shared
// with the store's cached materialization, avoiding reallocation).
// Heights must be contiguous from 1 (the store enforces the same
// invariant).
func (x *Index) IndexTxs(height int64, blockTime time.Duration, infos []*store.TxInfo) *BlockEvents {
	want := int64(len(x.blocks)) + 1
	if height != want {
		panic("eventindex: non-contiguous height")
	}
	x.scans++
	be := Decode(height, blockTime, infos)
	x.blocks = append(x.blocks, be)
	return be
}

// At returns the block index at a height (nil if not indexed).
func (x *Index) At(height int64) *BlockEvents {
	if height < 1 || height > int64(len(x.blocks)) {
		return nil
	}
	return x.blocks[height-1]
}

// Height reports the latest indexed height.
func (x *Index) Height() int64 { return int64(len(x.blocks)) }

// ScanCount reports how many full passes have run — exactly one
// per committed block regardless of how many relayers subscribe.
func (x *Index) ScanCount() uint64 { return x.scans }
