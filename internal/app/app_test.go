package app

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/merkle"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/types"
)

// sendMsg is a simple bank-send message for app tests.
type sendMsg struct {
	from, to string
	coin     Coin
}

func (m sendMsg) Route() string   { return "bank" }
func (m sendMsg) MsgType() string { return "MsgSend" }
func (m sendMsg) WireSize() int   { return 120 }
func (m sendMsg) AppendDigest(dst []byte) []byte {
	return fmt.Appendf(dst, "%s->%s:%s", m.from, m.to, m.coin)
}

func bankHandler(ctx *Context, msg Msg) error {
	m, ok := msg.(sendMsg)
	if !ok {
		return errors.New("bad msg")
	}
	if err := ctx.Bank.Send(m.from, m.to, m.coin); err != nil {
		return err
	}
	ctx.Emit(abci.Event{Type: "transfer", Data: m.to})
	return nil
}

func newTestApp() *App {
	a := New("chain-a", true)
	a.RegisterRoute("bank", bankHandler)
	a.CreateAccount("alice", Coin{Denom: "uatom", Amount: 1000})
	a.CreateAccount("bob")
	return a
}

func deliverBlock(a *App, height int64, txs ...*Tx) []abci.TxResult {
	a.BeginBlock(height, time.Duration(height)*5*time.Second)
	out := make([]abci.TxResult, len(txs))
	for i, tx := range txs {
		out[i] = a.DeliverTx(tx)
	}
	a.EndBlock(height)
	a.Commit()
	return out
}

func TestDeliverTransfersFunds(t *testing.T) {
	a := newTestApp()
	tx := NewTx("alice", 0, 1, []Msg{sendMsg{from: "alice", to: "bob", coin: Coin{"uatom", 100}}})
	res := deliverBlock(a, 1, tx)
	if !res[0].IsOK() {
		t.Fatalf("tx failed: %s", res[0].Log)
	}
	if got := a.Bank().Balance("bob", "uatom"); got != 100 {
		t.Fatalf("bob = %d", got)
	}
	if got := a.Bank().Balance("alice", "uatom"); got != 900 {
		t.Fatalf("alice = %d", got)
	}
	if len(res[0].Events) != 1 || res[0].Events[0].Type != "transfer" {
		t.Fatalf("events = %+v", res[0].Events)
	}
}

func TestSequenceEnforcement(t *testing.T) {
	a := newTestApp()
	good := NewTx("alice", 0, 1, []Msg{sendMsg{"alice", "bob", Coin{"uatom", 1}}})
	if err := a.CheckTx(good); err != nil {
		t.Fatalf("check: %v", err)
	}
	// Same committed sequence again: the paper's "Account sequence
	// mismatch" (§V) — cannot submit twice per block from one account.
	dup := NewTx("alice", 0, 2, []Msg{sendMsg{"alice", "bob", Coin{"uatom", 1}}})
	if err := a.CheckTx(dup); !errors.Is(err, ErrSequenceMismatch) {
		t.Fatalf("err = %v, want ErrSequenceMismatch", err)
	}
	// The next sequence passes CheckTx (pipelined client).
	next := NewTx("alice", 1, 3, []Msg{sendMsg{"alice", "bob", Coin{"uatom", 1}}})
	if err := a.CheckTx(next); err != nil {
		t.Fatalf("pipelined check: %v", err)
	}
	// Deliver out of order fails.
	res := deliverBlock(a, 1, next)
	if res[0].IsOK() || res[0].Code != 32 {
		t.Fatalf("out-of-order deliver: %+v", res[0])
	}
	res = deliverBlock(a, 2, good)
	if !res[0].IsOK() {
		t.Fatalf("in-order deliver failed: %s", res[0].Log)
	}
}

func TestFailedTxAtomicity(t *testing.T) {
	a := newTestApp()
	// Second message overdraws: the whole tx must roll back, the first
	// message's event with its writes.
	tx := NewTx("alice", 0, 1, []Msg{
		sendMsg{"alice", "bob", Coin{"uatom", 600}},
		sendMsg{"alice", "bob", Coin{"uatom", 600}},
	})
	res := deliverBlock(a, 1, tx)
	if res[0].IsOK() || res[0].Code != 4 {
		t.Fatalf("overdrawing tx: %+v, want code 4", res[0])
	}
	if len(res[0].Events) != 0 {
		t.Fatalf("failed tx returned events: %+v", res[0].Events)
	}
	if got := a.Bank().Balance("bob", "uatom"); got != 0 {
		t.Fatalf("partial execution leaked: bob = %d", got)
	}
	if got := a.Bank().Balance("alice", "uatom"); got != 1000 {
		t.Fatalf("alice = %d", got)
	}
	// Sequence still advanced (failed txs consume the sequence).
	if seq, _ := a.AccountSequence("alice"); seq != 1 {
		t.Fatalf("sequence = %d", seq)
	}
	ok, failed := a.TxStats()
	if ok != 0 || failed != 1 {
		t.Fatalf("stats = %d ok %d failed", ok, failed)
	}

	// The out-of-gas exit: both messages ran and emitted before the limit
	// was crossed; the result still carries neither writes nor events.
	tx = NewTx("alice", 1, 2, []Msg{
		sendMsg{"alice", "bob", Coin{"uatom", 10}},
		sendMsg{"alice", "bob", Coin{"uatom", 10}},
	})
	tx.GasLimit = simconf.GasTxOverhead + 2*MsgGas("MsgSend") - 1
	res = deliverBlock(a, 2, tx)
	if res[0].Code != 11 {
		t.Fatalf("res = %+v, want out-of-gas code 11", res[0])
	}
	if len(res[0].Events) != 0 {
		t.Fatalf("out-of-gas tx returned events: %+v", res[0].Events)
	}
	if a.Bank().Balance("bob", "uatom") != 0 || a.Bank().Balance("alice", "uatom") != 1000 {
		t.Fatal("out-of-gas tx leaked state")
	}
}

func TestUnknownSignerAndRoute(t *testing.T) {
	a := newTestApp()
	if err := a.CheckTx(NewTx("mallory", 0, 1, []Msg{sendMsg{}})); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("unknown signer check: %v", err)
	}
	if err := a.CheckTx(NewTx("alice", 0, 1, nil)); !errors.Is(err, ErrNoMessages) {
		t.Fatalf("empty tx check: %v", err)
	}
	type weirdMsg struct{ sendMsg }
	var w Msg = weirdMsg{}
	_ = w
	a.BeginBlock(1, 0)
	res := a.DeliverTx(&Tx{Signer: "alice", Sequence: 0, GasLimit: 1 << 30,
		Msgs: []Msg{routeless{}}})
	if res.IsOK() {
		t.Fatal("routeless msg executed")
	}
}

type routeless struct{}

func (routeless) Route() string   { return "nowhere" }
func (routeless) MsgType() string { return "MsgNowhere" }
func (routeless) WireSize() int   { return 1 }

func TestGasAccounting(t *testing.T) {
	a := newTestApp()
	tx := NewTx("alice", 0, 1, []Msg{sendMsg{"alice", "bob", Coin{"uatom", 1}}})
	res := deliverBlock(a, 1, tx)
	want := simconf.GasTxOverhead + MsgGas("MsgSend")
	if res[0].GasUsed != want {
		t.Fatalf("gas = %d, want %d", res[0].GasUsed, want)
	}
}

func TestOutOfGas(t *testing.T) {
	a := newTestApp()
	tx := NewTx("alice", 0, 1, []Msg{sendMsg{"alice", "bob", Coin{"uatom", 1}}})
	tx.GasLimit = 100 // far below overhead + handler gas
	res := deliverBlock(a, 1, tx)
	if res[0].IsOK() || res[0].Code != 11 {
		t.Fatalf("res = %+v, want out-of-gas code 11", res[0])
	}
	if a.Bank().Balance("bob", "uatom") != 0 {
		t.Fatal("out-of-gas tx leaked state")
	}
}

func TestGasScheduleMatchesPaper(t *testing.T) {
	// 100-message batches must land on the paper's measured totals
	// (§IV-A): 3,669,161 / 7,238,699 / 3,107,462 within 2%.
	cases := []struct {
		msgType string
		paper   uint64
	}{
		{"MsgTransfer", 3669161},
		{"MsgRecvPacket", 7238699},
		{"MsgAcknowledgement", 3107462},
	}
	for _, c := range cases {
		got := simconf.GasTxOverhead + 100*MsgGas(c.msgType)
		diff := float64(got) - float64(c.paper)
		if diff < 0 {
			diff = -diff
		}
		if diff/float64(c.paper) > 0.02 {
			t.Errorf("%s x100: gas %d vs paper %d (%.1f%% off)",
				c.msgType, got, c.paper, 100*diff/float64(c.paper))
		}
	}
}

func TestTxHashUniqueness(t *testing.T) {
	m := []Msg{sendMsg{"alice", "bob", Coin{"uatom", 1}}}
	a := NewTx("alice", 0, 1, m)
	b := NewTx("alice", 0, 2, m) // different nonce
	c := NewTx("alice", 1, 1, m) // different sequence
	d := NewTx("bob", 0, 1, m)   // different signer
	seen := map[string]bool{}
	for _, tx := range []*Tx{a, b, c, d} {
		h := tx.Hash()
		if seen[string(h[:])] {
			t.Fatal("tx hash collision")
		}
		seen[string(h[:])] = true
	}
	if a.Hash() != a.Hash() {
		t.Fatal("hash not stable")
	}
}

func TestTxSize(t *testing.T) {
	tx := NewTx("alice", 0, 1, []Msg{sendMsg{}, sendMsg{}})
	want := simconf.TxBaseBytes + 2*120
	if tx.Size() != want {
		t.Fatalf("size = %d, want %d", tx.Size(), want)
	}
}

func TestStateSnapshotAndProofs(t *testing.T) {
	s := NewState(true)
	s.Set([]byte("a"), []byte("1"))
	s.Set([]byte("b"), []byte("2"))
	s.CommitTx()
	root1 := s.Commit(1)

	s.Set([]byte("b"), []byte("3"))
	s.Delete([]byte("a"))
	s.Set([]byte("c"), []byte("4"))
	s.CommitTx()
	root2 := s.Commit(2)
	if root1 == root2 {
		t.Fatal("roots did not change")
	}

	nm, err := s.ProveNonMembership(2, []byte("a"))
	if err != nil || nm == nil {
		t.Fatalf("deleted key not provably absent at height 2: %v", err)
	}
	if err := merkle.VerifyNonMembership(root2, []byte("a"), nm); err != nil {
		t.Fatalf("absence proof of a: %v", err)
	}
	v, p, err := s.ProveMembership(2, []byte("b"))
	if err != nil || string(v) != "3" {
		t.Fatalf("b at height 2 = %q, %v", v, err)
	}
	if err := merkle.VerifyMembership(root2, []byte("b"), v, p); err != nil {
		t.Fatalf("proof of b at height 2: %v", err)
	}
}

// Proofs are served at the latest committed height only: an older height,
// a height not yet committed and a state with no commit are all refused.
func TestProofsOnlyAtLatestHeight(t *testing.T) {
	s := NewState(true)
	if _, _, err := s.ProveMembership(0, []byte("a")); err == nil {
		t.Fatal("a state with no commit served a proof")
	}
	for h := int64(1); h <= 3; h++ {
		s.Set([]byte("a"), fmt.Appendf(nil, "%d", h))
		s.CommitTx()
		s.Commit(h)
	}
	for _, h := range []int64{0, 1, 2, 4} {
		if _, _, err := s.ProveMembership(h, []byte("a")); err == nil {
			t.Errorf("membership proof served at height %d, latest 3", h)
		}
		if _, err := s.ProveNonMembership(h, []byte("b")); err == nil {
			t.Errorf("non-membership proof served at height %d, latest 3", h)
		}
	}
	if v, p, err := s.ProveMembership(3, []byte("a")); err != nil || p == nil || string(v) != "3" {
		t.Fatalf("a at the latest height = %q, %v, %v", v, p, err)
	}
}

// A key's membership proof is built once per height: a second request
// before the next Commit gets the same proof. A Commit that changes the
// tree forgets it; the fresh proof verifies against the new root, and the
// one handed out before still verifies against the root it was built at.
func TestRepeatedProofIsShared(t *testing.T) {
	s := NewState(true)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		s.Set([]byte(k), []byte("v-"+k))
	}
	s.CommitTx()
	root1 := s.Commit(1)
	v1, p1, _ := s.ProveMembership(1, []byte("c"))
	if _, again, _ := s.ProveMembership(1, []byte("c")); again != p1 || p1 == nil {
		t.Fatalf("second proof of c at height 1 is %p, first %p", again, p1)
	}

	s.Set([]byte("d"), []byte("changed"))
	s.CommitTx()
	root2 := s.Commit(2)
	v2, p2, _ := s.ProveMembership(2, []byte("c"))
	if p2 == p1 {
		t.Fatal("a Commit that changed the tree kept the old proof")
	}
	if err := merkle.VerifyMembership(root2, []byte("c"), v2, p2); err != nil {
		t.Fatalf("fresh proof against the new root: %v", err)
	}
	if err := merkle.VerifyMembership(root1, []byte("c"), v1, p1); err != nil {
		t.Fatalf("old proof against the old root: %v", err)
	}
	if merkle.VerifyMembership(root2, []byte("c"), v1, p1) == nil {
		t.Fatal("old proof verifies against the new root")
	}
}

// A full-proof Commit of a block that only overwrites values allocates
// nothing once its buffers have grown: the dirty keys, the edits and the
// tree's dirty leaf indices are all reused.
func TestValueOnlyCommitAllocs(t *testing.T) {
	s := NewState(true)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key/%05d", i)
		s.Set(keys[i], []byte("v"))
	}
	s.CommitTx()
	s.Commit(1)
	vals := [][]byte{[]byte("x"), []byte("y")}
	i := 0
	got := testing.AllocsPerRun(20, func() {
		for d := 0; d < 32; d++ {
			s.Set(keys[(i*32+d*7)%len(keys)], vals[i%2])
		}
		s.CommitTx()
		s.Commit(s.Version() + 1)
		i++
	})
	if got != 0 {
		t.Fatalf("a value-only full-proof Commit took %.0f allocations, want 0", got)
	}
}

// A proof at Version() is read from the live tree while the next block
// executes: it reflects the committed state, not the block's Sets and
// Deletes, committed transactions or not. It equals the full rebuild's.
func TestProofsServeCommittedState(t *testing.T) {
	s, model := NewState(true), map[string]string{}
	commit := func(height int64, writes map[string]string) map[string][]byte {
		for _, k := range sortedKeys(writes) {
			if v := writes[k]; v == "" {
				s.Delete([]byte(k))
				delete(model, k)
			} else {
				s.Set([]byte(k), []byte(v))
				model[k] = v
			}
		}
		s.CommitTx()
		s.Commit(height)
		return byteMap(model)
	}
	commit(1, map[string]string{"a": "1", "b": "2", "c": "3"})
	commit(2, map[string]string{"b": "20", "a": "", "d": "4"})
	h3 := commit(3, map[string]string{"c": "30", "b": "", "e": "5"})

	// Block 4 executes: one committed transaction, one in flight.
	s.Set([]byte("d"), []byte("40"))
	s.Delete([]byte("c"))
	s.CommitTx()
	s.Set([]byte("f"), []byte("6"))
	s.Delete([]byte("e"))
	keys := []string{"a", "b", "c", "d", "e", "f", "g"}
	for _, k := range keys {
		checkProof(t, s, merkle.NewTree(h3), 3, k)
	}
	if v, _ := s.Get([]byte("d")); string(v) != "40" {
		t.Fatalf("proofs disturbed the executing block: d = %q", v)
	}
	if _, ok := s.Get([]byte("e")); ok {
		t.Fatal("proofs disturbed the executing block: e present")
	}

	// Committing block 4 drops the in-flight transaction; its height is
	// now the live one.
	s.Commit(4)
	h4 := map[string][]byte{"d": []byte("40"), "e": []byte("5")}
	for _, k := range keys {
		checkProof(t, s, merkle.NewTree(h4), 4, k)
	}
}

// TestLiveProofAllocs pins the first proof of a key at each new height to
// the proof and its path at any state size: it reads the live tree in
// place, with no O(n) copy of it. Each run commits a block that changes
// one other value first, which allocates nothing and forgets the proof
// the run before built.
func TestLiveProofAllocs(t *testing.T) {
	for _, n := range []int{100, 3000} {
		s := NewState(true)
		var kb [KeyBufLen]byte
		for i := 0; i < n; i++ {
			s.Set(fmt.Appendf(kb[:0], "commitments/ports/transfer/channels/channel-0/sequences/%08d", i), []byte("v"))
		}
		s.CommitTx()
		s.Commit(1)
		key := []byte("commitments/ports/transfer/channels/channel-0/sequences/00000042")
		other := []byte("commitments/ports/transfer/channels/channel-0/sequences/00000007")
		vals := [][]byte{[]byte("x"), []byte("y")}
		got := testing.AllocsPerRun(20, func() {
			h := s.Version() + 1
			s.Set(other, vals[h%2])
			s.CommitTx()
			s.Commit(h)
			s.ProveMembership(h, key)
		})
		if got > 2 {
			t.Fatalf("n=%d: a proof at a new live height took %.0f allocations, want <= 2", n, got)
		}
	}
}

func TestStateTxRollback(t *testing.T) {
	s := NewState(false)
	s.Set([]byte("k"), []byte("committed"))
	s.CommitTx()
	s.Set([]byte("k"), []byte("staged"))
	s.Delete([]byte("k2"))
	s.AbortTx()
	if v, _ := s.Get([]byte("k")); string(v) != "committed" {
		t.Fatalf("k = %q after abort", v)
	}
}

// An aborted transaction leaves no trace: whatever it overwrote, deleted,
// re-created or deleted without it being there is put back, and the block
// commits the dirty set and root of a run that never saw it.
func TestAbortRestoresOverwrittenAndDeletedKeys(t *testing.T) {
	for _, fullProofs := range []bool{false, true} {
		run := func(withAborted bool) *State {
			s := NewState(fullProofs)
			s.Set([]byte("keep"), []byte("genesis"))
			s.Set([]byte("gone"), []byte("genesis"))
			s.CommitTx()
			s.Commit(1)

			s.Set([]byte("keep"), []byte("tx1")) // committed tx in the same block
			s.Set([]byte("new"), []byte("tx1"))
			s.CommitTx()
			if withAborted {
				s.Set([]byte("keep"), []byte("tx2"))  // overwrite
				s.Set([]byte("keep"), []byte("tx2b")) // ... twice
				s.Delete([]byte("gone"))              // delete
				s.Set([]byte("gone"), []byte("tx2"))  // re-create
				s.Delete([]byte("new"))               // delete what tx1 created
				s.Delete([]byte("absent"))            // delete of an absent key
				s.Set([]byte("fresh"), []byte("tx2")) // create
				if v, _ := s.Get([]byte("keep")); string(v) != "tx2b" {
					t.Fatalf("in-tx read of keep = %q", v)
				}
				_, hasNew := s.Get([]byte("new"))
				if _, hasFresh := s.Get([]byte("fresh")); hasNew || !hasFresh {
					t.Fatal("in-tx writes not visible")
				}
				s.AbortTx()
			}
			s.Commit(2)
			return s
		}
		want, got := run(false), run(true)
		for k, v := range map[string]string{"keep": "tx1", "gone": "genesis", "new": "tx1"} {
			if g, ok := got.Get([]byte(k)); !ok || string(g) != v {
				t.Fatalf("fullProofs=%v: %s = %q, %v after abort, want %q", fullProofs, k, g, ok, v)
			}
		}
		_, hasAbsent := got.Get([]byte("absent"))
		if _, hasFresh := got.Get([]byte("fresh")); hasAbsent || hasFresh || got.Len() != want.Len() {
			t.Fatalf("fullProofs=%v: aborted tx left keys behind (len %d, want %d)", fullProofs, got.Len(), want.Len())
		}
		// The non-proof root hashes the dirty keys themselves: they must
		// be tx1's two keys only.
		if got.root != want.root {
			t.Fatalf("fullProofs=%v: root differs from the run without the aborted tx", fullProofs)
		}
	}
}

func TestStateRootChainsWithoutProofs(t *testing.T) {
	s := NewState(false)
	s.Set([]byte("a"), []byte("1"))
	s.CommitTx()
	r1 := s.Commit(1)
	r2 := s.Commit(2) // empty block still advances the chain hash? no:
	// empty change set with new height must still produce a new root so
	// headers at different heights differ.
	if r1 == r2 {
		t.Fatal("empty commit left root unchanged")
	}
	if _, _, err := s.ProveMembership(1, []byte("a")); err == nil {
		t.Fatal("performance mode served a membership proof")
	}
	if _, err := s.ProveNonMembership(1, []byte("b")); err == nil {
		t.Fatal("performance mode served a non-membership proof")
	}
}

// Property: account sequences are strictly monotonic across any mix of
// successful and failed transactions.
func TestSequenceMonotonicProperty(t *testing.T) {
	prop := func(amounts []uint16) bool {
		a := newTestApp()
		var height int64
		expected := uint64(0)
		for i, amt := range amounts {
			height++
			tx := NewTx("alice", expected, uint64(i),
				[]Msg{sendMsg{"alice", "bob", Coin{"uatom", uint64(amt)}}})
			deliverBlock(a, height, tx)
			expected++
			seq, err := a.AccountSequence("alice")
			if err != nil || seq != expected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: bank conservation — sends never change total supply.
func TestBankConservationProperty(t *testing.T) {
	prop := func(ops []struct {
		FromAlice bool
		Amount    uint16
	}) bool {
		b := NewBank(NewState(false))
		b.Mint("alice", Coin{"uatom", 1 << 20})
		b.Mint("bob", Coin{"uatom", 1 << 20})
		for _, op := range ops {
			from, to := "alice", "bob"
			if !op.FromAlice {
				from, to = to, from
			}
			_ = b.Send(from, to, Coin{"uatom", uint64(op.Amount)})
			total := b.Balance("alice", "uatom") + b.Balance("bob", "uatom")
			if total != 2<<20 || b.Supply("uatom") != 2<<20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBankMintBurn(t *testing.T) {
	b := NewBank(NewState(false))
	b.Mint("x", Coin{"token", 50})
	if b.Supply("token") != 50 {
		t.Fatalf("supply = %d", b.Supply("token"))
	}
	if err := b.Burn("x", Coin{"token", 60}); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overburn: %v", err)
	}
	if err := b.Burn("x", Coin{"token", 20}); err != nil {
		t.Fatal(err)
	}
	if b.Supply("token") != 30 || b.Balance("x", "token") != 30 {
		t.Fatalf("after burn: supply=%d bal=%d", b.Supply("token"), b.Balance("x", "token"))
	}
}

func TestQueryCostModel(t *testing.T) {
	transfer100 := NewTx("alice", 0, 1, manyMsgs("MsgTransfer", 100))
	recv100 := NewTx("alice", 0, 2, manyMsgs("MsgRecvPacket", 100))
	ct := TxQueryCost(transfer100)
	cr := TxQueryCost(recv100)
	if cr <= ct {
		t.Fatalf("recv query (%v) should cost more than transfer (%v)", cr, ct)
	}
	// Base (pre-pagination) costs follow the calibrated schedule; the
	// RPC layer adds the block-size pagination factor on top.
	wantT := simconf.QueryBaseCost + 100*simconf.QueryCostPerTransferMsg
	if ct != wantT {
		t.Fatalf("transfer base cost = %v, want %v", ct, wantT)
	}
	wantR := simconf.QueryBaseCost + 100*simconf.QueryCostPerRecvMsg
	if cr != wantR {
		t.Fatalf("recv base cost = %v, want %v", cr, wantR)
	}
}

type typedMsg struct {
	kind string
	i    int
}

func (m typedMsg) Route() string   { return "ibc" }
func (m typedMsg) MsgType() string { return m.kind }
func (m typedMsg) WireSize() int   { return 100 }
func (m typedMsg) AppendDigest(dst []byte) []byte {
	return fmt.Appendf(dst, "%s/%d", m.kind, m.i)
}

func manyMsgs(kind string, n int) []Msg {
	out := make([]Msg, n)
	for i := range out {
		out[i] = typedMsg{kind: kind, i: i}
	}
	return out
}

func TestEventFrameBytes(t *testing.T) {
	// 5,000 transfers in one block stays under the 16 MiB WebSocket cap;
	// 100,000 transfers (the paper's §V overflow scenario) exceeds it.
	mkTxs := func(n int) []types.Tx {
		out := make([]types.Tx, n)
		for i := range out {
			out[i] = NewTx("a", uint64(i), uint64(i), manyMsgs("MsgTransfer", 100))
		}
		return out
	}
	under := EventFrameBytes(mkTxs(50))
	if under >= simconf.WebSocketMaxFrameBytes {
		t.Fatalf("5,000 transfers = %d bytes, should be under 16MiB", under)
	}
	over := EventFrameBytes(mkTxs(1000))
	if over <= simconf.WebSocketMaxFrameBytes {
		t.Fatalf("100,000 transfers = %d bytes, should exceed 16MiB", over)
	}
}

// The bank's keys are built by append; they are pinned against the fmt
// formatting they replaced, after a prefix the builder must keep.
func TestKeysMatchFmtFormatting(t *testing.T) {
	long := strings.Repeat("transfer/channel-0/", 8) + "uatom"
	for _, id := range []string{"uatom", "", "a/b", long} {
		var b [KeyBufLen]byte
		if got, want := appendBalanceKey(append(b[:0], "dst/"...), id, id), fmt.Sprintf("dst/balances/%s/%s", id, id); string(got) != want {
			t.Errorf("balance key = %q, want %q", got, want)
		}
		if got, want := appendSupplyKey(append(b[:0], "dst/"...), id), fmt.Sprintf("dst/supply/%s", id); string(got) != want {
			t.Errorf("supply key = %q, want %q", got, want)
		}
	}
}

// A Chunk hands out slots of exactly the room asked for that never
// overlap, fills each block's size class, and makes no block before it
// is asked.
func TestChunkSlots(t *testing.T) {
	var c Chunk[uint64]
	if cap(c) != 0 {
		t.Fatal("a zero Chunk holds a block")
	}
	seen := map[*uint64]bool{}
	for i, n := range []int{1, 3, 8, 1, 200, 2} {
		s := c.Slot(n)
		if len(s) != 0 || cap(s) != n {
			t.Fatalf("slot %d: len %d cap %d, want 0 and %d", i, len(s), cap(s), n)
		}
		s = s[:n]
		for j := range s {
			if seen[&s[j]] {
				t.Fatalf("slot %d shares a value with an earlier one", i)
			}
			seen[&s[j]] = true
		}
		if cap(c) < 64*n && len(c) == n {
			t.Fatalf("a block made for %d values holds %d", n, cap(c))
		}
	}
	p := c.New()
	if *p != 0 || seen[p] {
		t.Fatal("New returned a used value")
	}
}

// MintBytes and SendBytes are Mint and Send for names given as bytes:
// the same writes, and the same refusal.
func TestBankByteDoorsMatchStringDoors(t *testing.T) {
	str, byt := NewBank(NewState(false)), NewBank(NewState(false))
	str.Mint("alice", Coin{"transfer/channel-0/uatom", 9})
	byt.MintBytes([]byte("alice"), []byte("transfer/channel-0/uatom"), 9)
	errS := str.Send("alice", "bob", Coin{"transfer/channel-0/uatom", 4})
	errB := byt.SendBytes([]byte("alice"), []byte("bob"), []byte("transfer/channel-0/uatom"), 4)
	if errS != nil || errB != nil {
		t.Fatalf("send: %v / %v", errS, errB)
	}
	errS = str.Send("bob", "alice", Coin{"transfer/channel-0/uatom", 5})
	errB = byt.SendBytes([]byte("bob"), []byte("alice"), []byte("transfer/channel-0/uatom"), 5)
	if !errors.Is(errB, ErrInsufficientFunds) || errS == nil || errS.Error() != errB.Error() {
		t.Fatalf("overdraft: %v / %v", errS, errB)
	}
	for _, k := range []string{"alice", "bob"} {
		if s, b := str.Balance(k, "transfer/channel-0/uatom"), byt.Balance(k, "transfer/channel-0/uatom"); s != b {
			t.Fatalf("%s holds %d through the string doors, %d through the byte doors", k, s, b)
		}
	}
	if str.Supply("transfer/channel-0/uatom") != 9 || byt.Supply("transfer/channel-0/uatom") != 9 {
		t.Fatal("supply differs")
	}
}

// Record proofs are cut from the state's chunks and checked after
// network latency: each must keep proving its record against the root it
// was taken at while later commits write the table and later proofs are
// cut from the same chunks.
func TestRecordProofsOutliveLaterCommits(t *testing.T) {
	s := NewState(true)
	r := Records{Kind: Commitment, Channel: "channel-0", Prefix: []byte("commitments/ports/transfer/channels/channel-0/sequences/")}
	type taken struct {
		root merkle.Hash
		seq  uint64
		val  []byte
		p    *merkle.RecordProof
	}
	var proofs []taken
	for h := int64(1); h <= 40; h++ {
		for i := uint64(0); i < 3; i++ {
			seq := uint64(h)*3 + i
			s.SetRecord(&r, seq, []byte(fmt.Sprintf("v%d", seq)))
		}
		s.CommitTx()
		root := s.Commit(h)
		for _, seq := range []uint64{3, uint64(h) * 3, uint64(h)*3 + 2} {
			v, p, err := s.ProveRecord(h, &r, seq)
			if err != nil || p == nil {
				t.Fatalf("height %d seq %d: proof %v, err %v", h, seq, p, err)
			}
			proofs = append(proofs, taken{root, seq, v, p})
		}
	}
	for _, tk := range proofs {
		if err := merkle.VerifyRecord(tk.root, r.Prefix, tk.seq, tk.val, tk.p); err != nil {
			t.Fatalf("seq %d: a proof taken before later commits no longer verifies: %v", tk.seq, err)
		}
	}
}
