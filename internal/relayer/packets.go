package relayer

import "ibcbench/internal/ibc"

// pktState is where one packet stands in the relayer's own history.
type pktState uint8

const (
	pktUnseen         pktState = iota // no send_packet sighted
	pktSeen                           // sighted; no recv of ours queued or in flight
	pktRecvBuilt                      // our recv is queued
	pktRecvSubmitted                  // our recv is in a submitted transaction
	pktRecvRetried                    // our recv failed unsettled and was queued once more
	pktReleased                       // a failed batch gave our recv back: the next sighting rebuilds it
	pktTimeoutProbing                 // a receipt probe decides whether it timed out
	pktTimeoutBuilt                   // our timeout is queued or submitted
	pktTimeoutRetried                 // our timeout failed unsettled and was queued once more
	pktTimedOut                       // done by timeout, or its timeout given up
	pktReceived                       // the destination holds its receipt
	pktAckBuilt                       // our ack is queued or submitted
	pktAckRetried                     // our ack failed unsettled and was queued once more
	pktAcked                          // done by ack, or its ack given up
)

// msgKind is what an outgoing message does to its packet.
type msgKind uint8

const (
	kindRecv msgKind = iota
	kindAck
	kindTimeout
)

// The state a message of each kind holds its packet in on its first
// attempt, on its one retry, and once it is given up (for an ack or a
// timeout, also once it is confirmed).
var (
	firstTry = [...]pktState{kindRecv: pktRecvSubmitted, kindAck: pktAckBuilt, kindTimeout: pktTimeoutBuilt}
	retryOf  = [...]pktState{kindRecv: pktRecvRetried, kindAck: pktAckRetried, kindTimeout: pktTimeoutRetried}
	givenUp  = [...]pktState{kindRecv: pktSeen, kindAck: pktAcked, kindTimeout: pktTimedOut}
)

// packetRow is one packet: its state and the event index's shared
// send_packet record, held from its sighting until a released recv gives
// it back. Every recv, ack and timeout the relayer builds, submits,
// confirms, probes or releases is one of its methods.
type packetRow struct {
	p  *ibc.Packet
	st pktState
}

// expirable: sighted, with no recv of ours in flight and no sign that it
// was received, the packet times out once its timeout height passes.
func (row *packetRow) expirable() bool {
	return row.st == pktSeen || row.st == pktRecvBuilt || row.st == pktReleased
}

// done reports whether the packet is finished after a sighted send: no
// transition changes its row any more.
func (row *packetRow) done() bool {
	return row.p != nil && (row.st == pktAcked || row.st == pktTimedOut)
}

// sighted records p's send_packet record and reports whether to build
// its recv: on its first sighting, or its first after a released recv,
// unless it had expired on the destination. A packet known received
// before its send was sighted gets a recv too; a settled probe after
// the recv fails tells the relayer it was redundant.
func (row *packetRow) sighted(p *ibc.Packet, expired bool) bool {
	if row.p != nil && row.st != pktReleased {
		return false
	}
	row.p = p
	switch {
	case row.st != pktUnseen && row.st != pktReleased:
	case expired:
		row.st = pktSeen
	default:
		row.st = pktRecvBuilt
	}
	return !expired
}

// received records that the destination holds the receipt. A timeout
// already built stands: it was built on the receipt's absence.
func (row *packetRow) received() {
	if row.st <= pktTimeoutProbing {
		row.st = pktReceived
	}
}

// ackSighted reports whether a write_acknowledgement sighting builds the
// packet's ack, and marks it built.
func (row *packetRow) ackSighted() bool {
	if row.st >= pktTimeoutBuilt && row.st != pktReceived {
		return false
	}
	row.st = pktAckBuilt
	return true
}

// submitted records that our recv left the outbox in a transaction.
func (row *packetRow) submitted() {
	if row.st == pktRecvBuilt {
		row.st = pktRecvSubmitted
	}
}

// confirmed records a confirmed or settled message of kind k.
func (row *packetRow) confirmed(k msgKind) {
	if k == kindRecv {
		row.received()
	} else {
		row.giveUp(k)
	}
}

// giveUp drops our message of kind k: a recv's packet waits for its ack
// or its timeout, and an ack or a timeout is not tried again.
func (row *packetRow) giveUp(k msgKind) {
	if row.st == firstTry[k] || row.st == retryOf[k] {
		row.st = givenUp[k]
	}
}

// failed reports whether a message of kind k whose transaction failed is
// probed for settlement; one that failed on its retry is given up.
func (row *packetRow) failed(k msgKind) bool {
	if row.st == retryOf[k] {
		row.giveUp(k)
		return false
	}
	return true
}

// probed applies a failed message's settlement probe and reports whether
// it is queued once more: on its first attempt, unsettled, and only
// while the relayer runs.
func (row *packetRow) probed(k msgKind, settled, canRetry bool) bool {
	switch {
	case settled:
		row.confirmed(k)
	case canRetry && row.st == firstTry[k]:
		row.st = retryOf[k]
		return true
	default:
		row.giveUp(k)
	}
	return false
}

// released takes back our message of kind k on p that a failed batch
// gave up: a recv is rebuilt at the next sighting of p's send unless the
// packet is finished, an ack at the next sighting of its
// write_acknowledgement, and a timeout's packet is expirable again.
func (row *packetRow) released(k msgKind, p *ibc.Packet) {
	switch {
	case k == kindRecv && row.st != pktUnseen && row.st <= pktTimeoutProbing:
		row.st = pktReleased
	case k == kindRecv && !row.done():
		row.p = nil
	case k == kindRecv, row.st != firstTry[k] && row.st != retryOf[k]:
	case k == kindAck:
		row.st = pktReceived
	default:
		row.p, row.st = p, pktSeen
	}
}

// timeoutProbed applies a timeout's receipt probe and reports whether to
// build the timeout. A probe that failed, or that answered a stopped
// relayer, leaves the packet expirable for the next frame.
func (row *packetRow) timeoutProbed(ok, settled bool) bool {
	switch {
	case row.st != pktTimeoutProbing:
	case !ok:
		row.st = pktSeen
	case settled:
		row.received()
	default:
		row.st = pktTimeoutBuilt
		return true
	}
	return false
}

// packetTable holds the packets sourced on one endpoint's channel, row i
// for sequence base+1+i: a channel's sequences are dense from 1, so the
// table needs no map. The table drops its leading done rows as it grows,
// and no row below the low-water mark lo is ever expirable again (from
// pktTimedOut on, a state stays there), so a timeout walk from lo costs
// about as much as the packets in flight.
type packetTable struct {
	rows     []packetRow
	base, lo uint64
	gone     packetRow // stands in for the dropped rows, all alike
}

// goneSend marks the stand-in row's send as sighted.
var goneSend ibc.Packet

// row returns seq's row, growing the table to hold it. Before the rows
// outgrow their capacity, the leading done ones are dropped if they are
// a quarter of the table.
func (t *packetTable) row(seq uint64) *packetRow {
	if seq <= t.base {
		t.gone = packetRow{p: &goneSend, st: pktAcked}
		return &t.gone
	}
	if n := seq - t.base; n > uint64(len(t.rows)) {
		if n > uint64(cap(t.rows)) {
			d := 0
			for d < len(t.rows) && t.rows[d].done() {
				d++
			}
			if d > 0 && 4*d >= len(t.rows) {
				k := copy(t.rows, t.rows[d:])
				clear(t.rows[k:])
				t.rows, t.base = t.rows[:k], t.base+uint64(d)
			}
		}
		t.rows = append(t.rows, make([]packetRow, seq-t.base-uint64(len(t.rows)))...)
	}
	return &t.rows[seq-t.base-1]
}

// expired returns the first sequence from seq on, and from lo, of an
// expirable packet whose timeout height h has reached, moving lo past
// the leading rows that can never expire.
func (t *packetTable) expired(seq uint64, h int64) (uint64, bool) {
	t.lo = max(t.lo, t.base+1)
	for seq = max(seq, t.lo); seq-t.base <= uint64(len(t.rows)); seq++ {
		switch row := &t.rows[seq-t.base-1]; {
		case row.expirable():
			if row.p.TimeoutHeight > 0 && h >= row.p.TimeoutHeight {
				return seq, true
			}
		case seq == t.lo && row.st >= pktTimedOut:
			t.lo++
		}
	}
	return 0, false
}
