package app

import (
	"encoding/binary"
	"errors"
	"fmt"
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
}

// NewBank returns a bank keeper over the given state.
func NewBank(state *State) *Bank {
	return &Bank{state: state}
}

func appendBalanceKey(dst []byte, account, denom string) []byte {
	dst = append(append(append(dst, "balances/"...), account...), '/')
	return append(dst, denom...)
}

func appendSupplyKey(dst []byte, denom string) []byte {
	return append(append(dst, "supply/"...), denom...)
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
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], v)
	b.state.Set(key, raw[:])
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

func (b *Bank) credit(account, denom string, amount uint64) {
	var k [KeyBufLen]byte
	b.add(appendBalanceKey(k[:0], account, denom), amount)
}

func (b *Bank) debit(account, denom string, amount uint64) error {
	var k [KeyBufLen]byte
	key := appendBalanceKey(k[:0], account, denom)
	have := b.getUint(key)
	if have < amount {
		return fmt.Errorf("%w: %s has %d%s, need %d", ErrInsufficientFunds,
			account, have, denom, amount)
	}
	b.setUint(key, have-amount)
	return nil
}

// Mint creates new supply credited to an account.
func (b *Bank) Mint(account string, coin Coin) {
	b.credit(account, coin.Denom, coin.Amount)
	var k [KeyBufLen]byte
	b.add(appendSupplyKey(k[:0], coin.Denom), coin.Amount)
}

// Burn destroys supply debited from an account.
func (b *Bank) Burn(account string, coin Coin) error {
	if err := b.debit(account, coin.Denom, coin.Amount); err != nil {
		return err
	}
	var k [KeyBufLen]byte
	key := appendSupplyKey(k[:0], coin.Denom)
	b.setUint(key, b.getUint(key)-coin.Amount)
	return nil
}

// Send moves coins between accounts.
func (b *Bank) Send(from, to string, coin Coin) error {
	if err := b.debit(from, coin.Denom, coin.Amount); err != nil {
		return err
	}
	b.credit(to, coin.Denom, coin.Amount)
	return nil
}
