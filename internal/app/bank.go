package app

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Coin is an amount of a single denomination.
type Coin struct {
	Denom  string
	Amount uint64
}

// String renders the coin as "<amount><denom>".
func (c Coin) String() string { return fmt.Sprintf("%d%s", c.Amount, c.Denom) }

// Bank errors.
var (
	// ErrInsufficientFunds reports a debit exceeding the balance.
	ErrInsufficientFunds = errors.New("bank: insufficient funds")
	// ErrUnknownAccount reports an operation on a missing account.
	ErrUnknownAccount = errors.New("bank: unknown account")
)

// Bank is the fungible-token module: balances, supply, mint/burn and
// escrow, the substrate for ICS-20 transfers.
//
// Balances live in the application's journalled State, so a failed
// transaction rolls its bank effects back atomically.
type Bank struct {
	state *State
	// vals is the chunk balance and supply values are cut from: the store
	// keeps each by reference, and nothing writes it again.
	vals Chunk[byte]
}

// NewBank returns a bank keeper over the given state.
func NewBank(state *State) *Bank {
	return &Bank{state: state}
}

// The bank's key layouts: BalancePrefix + account + "/" + denom, and
// SupplyPrefix + denom.
const BalancePrefix, SupplyPrefix = "balances/", "supply/"

// text is an account name or a denomination as the bank reads one: a
// string, or bytes read in place (the transfer module reads a packet's
// addresses and denom as sub-slices of its data, and builds a voucher's
// denom and an escrow account's name on its stack). The bank copies what
// it keeps, so neither escapes.
type text interface{ ~string | ~[]byte }

func appendBalanceKey[T text](dst []byte, account, denom T) []byte {
	dst = append(append(append(dst, BalancePrefix...), account...), '/')
	return append(dst, denom...)
}

func appendSupplyKey[T text](dst []byte, denom T) []byte {
	return append(append(dst, SupplyPrefix...), denom...)
}

func (b *Bank) getUint(key []byte) uint64 {
	raw, ok := b.state.Get(key)
	if !ok || len(raw) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(raw)
}

func (b *Bank) setUint(key []byte, v uint64) {
	if v == 0 {
		b.state.Delete(key)
		return
	}
	b.state.Set(key, binary.BigEndian.AppendUint64(b.vals.Slot(8), v))
}

// Balance reports an account's balance in one denomination.
func (b *Bank) Balance(account, denom string) uint64 {
	var k [KeyBufLen]byte
	return b.getUint(appendBalanceKey(k[:0], account, denom))
}

// Supply reports the total minted amount of a denomination.
func (b *Bank) Supply(denom string) uint64 {
	var k [KeyBufLen]byte
	return b.getUint(appendSupplyKey(k[:0], denom))
}

// add raises the amount under key by delta.
func (b *Bank) add(key []byte, delta uint64) { b.setUint(key, b.getUint(key)+delta) }

// The bank's one write path, for string and byte names alike. Its doors
// (Mint, MintBytes, Burn, Send, SendBytes) are plain methods kept out of
// line: inlined into another package, a door would leave a call into a
// generic function instantiated here, which that package's escape
// analysis does not see into, so a caller's stack-built name would move
// to the heap.

func credit[T text](b *Bank, account, denom T, amount uint64) {
	var k [KeyBufLen]byte
	b.add(appendBalanceKey(k[:0], account, denom), amount)
}

func debit[T text](b *Bank, account, denom T, amount uint64) error {
	var k [KeyBufLen]byte
	key := appendBalanceKey(k[:0], account, denom)
	have := b.getUint(key)
	if have < amount {
		// Copies: a name passed to fmt would escape, and a caller may
		// have built it on its stack.
		return fmt.Errorf("%w: %s has %d%s, need %d", ErrInsufficientFunds,
			strings.Clone(string(account)), have, strings.Clone(string(denom)), amount)
	}
	b.setUint(key, have-amount)
	return nil
}

func mint[T text](b *Bank, account, denom T, amount uint64) {
	credit(b, account, denom, amount)
	var k [KeyBufLen]byte
	b.add(appendSupplyKey(k[:0], denom), amount)
}

func send[T text](b *Bank, from, to, denom T, amount uint64) error {
	if err := debit(b, from, denom, amount); err != nil {
		return err
	}
	credit(b, to, denom, amount)
	return nil
}

// Mint creates new supply credited to an account.
//
//go:noinline
func (b *Bank) Mint(account string, coin Coin) { mint(b, account, coin.Denom, coin.Amount) }

// MintBytes is Mint for an account and a denom given as bytes.
//
//go:noinline
func (b *Bank) MintBytes(account, denom []byte, amount uint64) { mint(b, account, denom, amount) }

// Burn destroys supply debited from an account.
func (b *Bank) Burn(account string, coin Coin) error {
	if err := debit(b, account, coin.Denom, coin.Amount); err != nil {
		return err
	}
	var k [KeyBufLen]byte
	key := appendSupplyKey(k[:0], coin.Denom)
	b.setUint(key, b.getUint(key)-coin.Amount)
	return nil
}

// Send moves coins between accounts.
//
//go:noinline
func (b *Bank) Send(from, to string, coin Coin) error {
	return send(b, from, to, coin.Denom, coin.Amount)
}

// SendBytes is Send for accounts and a denom given as bytes.
//
//go:noinline
func (b *Bank) SendBytes(from, to, denom []byte, amount uint64) error {
	return send(b, from, to, denom, amount)
}
