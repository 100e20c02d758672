// Package eventindex is the shared per-chain event index: one pass over
// a committed block's abci.Events groups the packets they carry into
// per-channel records that every consumer — relayers, trackers and the
// packet-clearing loop — reads instead of walking TxInfo.Result.Events
// itself. The events carry the keeper's own ibc.Packet and ibc.AckWrite
// values, so the pass sorts and copies; nothing is parsed.
//
// Before this layer existed, every relayer endpoint scanned every
// block's events for its own channel, so a hub chain with K links
// performed K full scans per block. The index is built exactly once per
// commit (see chain.New wiring the IndexBlock hook before any RPC node)
// and served by reference to all subscribers; ScanCount counts the
// passes so tests can assert the scan is O(1) in relayer count.
package eventindex

import (
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/ibc"
	"ibcbench/internal/tendermint/store"
)

// TxEvents is the per-channel view of one transaction's events.
// Map keys are the channel identifiers on the chain that emitted the
// events: send_packet records key on the packet's source channel,
// write_acknowledgement records on its destination channel.
type TxEvents struct {
	Info      *store.TxInfo
	Sends     map[string][]ibc.Packet
	AckWrites map[string][]ibc.AckWrite
}

// SendPackets returns the tx's send_packet packets for one channel, in
// event order.
func (te *TxEvents) SendPackets(channel string) []ibc.Packet {
	return te.Sends[channel]
}

// Acks returns the tx's write_acknowledgement records for one channel,
// in event order.
func (te *TxEvents) Acks(channel string) []ibc.AckWrite {
	return te.AckWrites[channel]
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

// decodeTx extracts one transaction's packet events (nil if it has none).
func decodeTx(info *store.TxInfo) *TxEvents {
	var te *TxEvents
	ensure := func() *TxEvents {
		if te == nil {
			te = &TxEvents{Info: info}
		}
		return te
	}
	for _, ev := range info.Result.Events {
		switch ev.Type {
		case "send_packet":
			p := ev.Data.(ibc.Packet)
			t := ensure()
			if t.Sends == nil {
				t.Sends = make(map[string][]ibc.Packet)
			}
			t.Sends[p.SourceChannel] = append(t.Sends[p.SourceChannel], p)
		case "write_acknowledgement":
			aw := ev.Data.(ibc.AckWrite)
			t := ensure()
			if t.AckWrites == nil {
				t.AckWrites = make(map[string][]ibc.AckWrite)
			}
			t.AckWrites[aw.Packet.DestChannel] = append(t.AckWrites[aw.Packet.DestChannel], aw)
		}
	}
	return te
}

// Index is the append-only per-chain event index, populated once per
// committed block from the consensus engine's commit hook.
type Index struct {
	chainID string
	blocks  []*BlockEvents // index 0 = height 1
	scans   uint64
}

// New returns an empty index for one chain.
func New(chainID string) *Index {
	return &Index{chainID: chainID}
}

// ChainID reports the chain the index belongs to.
func (x *Index) ChainID() string { return x.chainID }

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
