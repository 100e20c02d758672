// Package app implements the Cosmos-SDK-style application layer of the
// simulated Gaia blockchains: accounts with replay-protecting sequence
// numbers, an ante handler enforcing the paper's "one transaction per
// account per block" submission behaviour (§III-D), a bank module, gas
// metering matching the paper's measured gas schedule, and a message
// router that IBC modules plug into.
package app

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/types"
)

// Ante/execution errors. ErrSequenceMismatch carries the exact error
// string the paper reports from the Cosmos SDK: "Account sequence
// mismatch" (§V).
var (
	ErrSequenceMismatch = errors.New("account sequence mismatch")
	ErrUnknownSigner    = errors.New("app: unknown signer account")
	ErrOutOfGas         = errors.New("app: out of gas")
	ErrNoMessages       = errors.New("app: transaction carries no messages")
)

// Msg is one operation inside a transaction.
type Msg interface {
	// Route selects the module handler (e.g. "transfer", "ibc").
	Route() string
	// MsgType names the concrete message (e.g. "MsgTransfer").
	MsgType() string
	// WireSize is the encoded size in bytes.
	WireSize() int
}

// Context is passed to message handlers.
type Context struct {
	ChainID string
	Height  int64
	Time    time.Duration
	State   *State
	Bank    *Bank
	App     *App

	// events is the transaction's one event buffer: the routed handler and
	// every module nested below it (middleware such as packet forwarding)
	// emit here, in execution order. DeliverTx hands it to the result of a
	// successful transaction and drops it with the writes of a failed one.
	events []abci.Event
}

// Emit appends events to the transaction's event stream.
func (c *Context) Emit(evs ...abci.Event) { c.events = append(c.events, evs...) }

// Handler executes one message kind. Gas is not its business: DeliverTx
// charges MsgGas(msg.MsgType()) for every routed message, failed or not.
type Handler func(ctx *Context, msg Msg) error

// Account is an externally-owned account.
type Account struct {
	Name string
	// Sequence is the committed sequence number: the next expected
	// transaction sequence (replay protection).
	Sequence uint64
	// checkSequence is the mempool's view: CheckTx-accepted but not yet
	// committed transactions advance it.
	checkSequence uint64
}

// Tx is a signed application transaction carrying a batch of messages
// (the paper's workload uses 100 cross-chain transfer messages per tx).
type Tx struct {
	Signer   string
	Sequence uint64
	Msgs     []Msg
	GasLimit uint64
	// Nonce disambiguates otherwise-identical transactions.
	Nonce uint64

	hash     types.Hash
	hashSet  bool
	wireSize int
}

var _ types.Tx = (*Tx)(nil)

// NewTx assembles a transaction. Gas limit defaults to the standard
// gas-wanted estimate for its messages. The hash is sealed eagerly so a
// transaction crossing partition boundaries never lazily writes its
// cache fields from a foreign goroutine.
func NewTx(signer string, sequence uint64, nonce uint64, msgs []Msg) *Tx {
	tx := &Tx{Signer: signer, Sequence: sequence, Nonce: nonce, Msgs: msgs}
	tx.GasLimit = GasWantedFor(msgs)
	tx.Hash()
	tx.Size()
	return tx
}

// GasWantedFor estimates gas for a message batch from the calibrated
// schedule plus the fixed transaction overhead.
func GasWantedFor(msgs []Msg) uint64 {
	gas := simconf.GasTxOverhead
	for _, m := range msgs {
		gas += MsgGas(m.MsgType())
	}
	return gas
}

// MsgGas returns the calibrated per-message gas cost (§IV-A).
func MsgGas(msgType string) uint64 {
	switch msgType {
	case "MsgTransfer":
		return simconf.GasPerMsgTransfer
	case "MsgRecvPacket":
		return simconf.GasPerMsgRecvPacket
	case "MsgAcknowledgement":
		return simconf.GasPerMsgAcknowledgement
	case "MsgTimeout":
		return simconf.GasPerMsgAcknowledgement
	default:
		return 10000
	}
}

// Hash implements types.Tx.
func (tx *Tx) Hash() types.Hash {
	if !tx.hashSet {
		h := sha256.New()
		h.Write([]byte(tx.Signer))
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], tx.Sequence)
		h.Write(n[:])
		binary.BigEndian.PutUint64(n[:], tx.Nonce)
		h.Write(n[:])
		for _, m := range tx.Msgs {
			h.Write([]byte(m.Route()))
			h.Write([]byte(m.MsgType()))
			if d, ok := m.(interface{ Digest() []byte }); ok {
				h.Write(d.Digest())
			}
		}
		copy(tx.hash[:], h.Sum(nil))
		tx.hashSet = true
	}
	return tx.hash
}

// Size implements types.Tx.
func (tx *Tx) Size() int {
	if tx.wireSize == 0 {
		n := simconf.TxBaseBytes
		for _, m := range tx.Msgs {
			n += m.WireSize()
		}
		tx.wireSize = n
	}
	return tx.wireSize
}

// GasWanted implements types.Tx.
func (tx *Tx) GasWanted() uint64 { return tx.GasLimit }

// App is the chain application (implements abci.Application).
type App struct {
	chainID  string
	accounts map[string]*Account
	bank     *Bank
	state    *State
	routes   map[string]Handler

	curHeight int64
	curTime   time.Duration

	feesCollected float64
	txsOK         uint64
	txsFailed     uint64
}

var _ abci.Application = (*App)(nil)

// New creates an application for one chain. fullProofs selects real
// merkle state commitments (see State).
func New(chainID string, fullProofs bool) *App {
	state := NewState(fullProofs)
	return &App{
		chainID:  chainID,
		accounts: make(map[string]*Account),
		bank:     NewBank(state),
		state:    state,
		routes:   make(map[string]Handler),
	}
}

// ChainID reports the chain this app serves.
func (a *App) ChainID() string { return a.chainID }

// Bank exposes the bank module.
func (a *App) Bank() *Bank { return a.bank }

// State exposes the IBC store.
func (a *App) State() *State { return a.state }

// Height reports the height currently executing (or last executed).
func (a *App) Height() int64 { return a.curHeight }

// Now reports the block time currently executing.
func (a *App) Now() time.Duration { return a.curTime }

// FeesCollected reports total fees paid (gas x price), in tokens.
func (a *App) FeesCollected() float64 { return a.feesCollected }

// TxStats reports (succeeded, failed) executed transaction counts.
func (a *App) TxStats() (ok, failed uint64) { return a.txsOK, a.txsFailed }

// RegisterRoute installs a module handler.
func (a *App) RegisterRoute(route string, h Handler) {
	a.routes[route] = h
}

// CreateAccount registers an account with initial balances.
func (a *App) CreateAccount(name string, coins ...Coin) *Account {
	acct := &Account{Name: name}
	a.accounts[name] = acct
	for _, c := range coins {
		a.bank.Mint(name, c)
	}
	a.state.CommitTx() // genesis writes apply immediately
	return acct
}

// Account looks up an account (nil if missing).
func (a *App) Account(name string) *Account { return a.accounts[name] }

// AccountSequence reports the committed sequence for an account, which is
// what clients query before signing.
func (a *App) AccountSequence(name string) (uint64, error) {
	acct := a.accounts[name]
	if acct == nil {
		return 0, ErrUnknownAccount
	}
	return acct.Sequence, nil
}

// CheckTx is the ante handler for mempool admission. It enforces the
// sequence rule that produces the paper's "Account sequence mismatch"
// errors: a second transaction signed with the committed sequence cannot
// enter the pool while the first is pending.
func (a *App) CheckTx(tx types.Tx) error {
	t, ok := tx.(*Tx)
	if !ok {
		return fmt.Errorf("app: foreign tx type %T", tx)
	}
	if len(t.Msgs) == 0 {
		return ErrNoMessages
	}
	acct := a.accounts[t.Signer]
	if acct == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, t.Signer)
	}
	if t.Sequence != acct.checkSequence {
		return fmt.Errorf("%w: expected %d, got %d (account %s)",
			ErrSequenceMismatch, acct.checkSequence, t.Sequence, t.Signer)
	}
	acct.checkSequence++
	return nil
}

// BeginBlock implements abci.Application.
func (a *App) BeginBlock(height int64, now time.Duration) {
	a.curHeight = height
	a.curTime = now
}

// DeliverTx executes one transaction atomically: on any message failure
// the transaction's writes are rolled back but the sequence still
// advances and gas is still charged, exactly like the SDK.
func (a *App) DeliverTx(tx types.Tx) abci.TxResult {
	t, ok := tx.(*Tx)
	if !ok {
		return abci.TxResult{Code: 1, Log: "foreign tx type"}
	}
	acct := a.accounts[t.Signer]
	if acct == nil {
		a.txsFailed++
		return abci.TxResult{Code: 2, Log: ErrUnknownSigner.Error()}
	}
	if t.Sequence != acct.Sequence {
		a.txsFailed++
		return abci.TxResult{
			Code: 32, // SDK's ErrWrongSequence code
			Log: fmt.Sprintf("%v: expected %d, got %d",
				ErrSequenceMismatch, acct.Sequence, t.Sequence),
		}
	}
	acct.Sequence++
	if acct.checkSequence < acct.Sequence {
		acct.checkSequence = acct.Sequence
	}

	ctx := &Context{
		ChainID: a.chainID,
		Height:  a.curHeight,
		Time:    a.curTime,
		State:   a.state,
		Bank:    a.bank,
		App:     a,
	}
	res := abci.TxResult{GasUsed: simconf.GasTxOverhead}
	for i, msg := range t.Msgs {
		h, ok := a.routes[msg.Route()]
		if !ok {
			res.Code, res.Log = 3, fmt.Sprintf("no route %q", msg.Route())
			break
		}
		res.GasUsed += MsgGas(msg.MsgType())
		if err := h(ctx, msg); err != nil {
			res.Code, res.Log = 4, fmt.Sprintf("msg %d (%s): %v", i, msg.MsgType(), err)
			break
		}
		if res.GasUsed > t.GasLimit {
			res.Code, res.Log = 11, ErrOutOfGas.Error() // SDK's ErrOutOfGas code
			break
		}
	}
	a.feesCollected += float64(res.GasUsed) * simconf.GasPriceTokens
	if !res.IsOK() {
		// The events of a failed transaction vanish with its writes.
		a.state.AbortTx()
		a.txsFailed++
		return res
	}
	a.state.CommitTx()
	a.txsOK++
	res.Events = ctx.events
	return res
}

// EndBlock implements abci.Application.
func (a *App) EndBlock(int64) {}

// Commit implements abci.Application: it persists the block's state and
// folds account/bank state into the AppHash.
func (a *App) Commit() types.Hash {
	root := a.state.Commit(a.curHeight)
	// Reset mempool sequence views that fell behind committed state
	// (recheck after commit).
	// order-free: each account updates only its own view.
	for _, acct := range a.accounts {
		if acct.checkSequence < acct.Sequence {
			acct.checkSequence = acct.Sequence
		}
	}
	return root
}

// ResetCheckState realigns every account's mempool sequence view with
// committed state, modeling a mempool flush/recheck.
func (a *App) ResetCheckState() {
	// order-free: each account updates only its own view.
	for _, acct := range a.accounts {
		acct.checkSequence = acct.Sequence
	}
}
