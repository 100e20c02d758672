// Package ibcbench's top-level benchmarks regenerate every table and
// figure of the paper's evaluation section (§IV). Each bench runs the
// corresponding experiment driver once per iteration and reports the
// headline metric via b.ReportMetric, so `go test -bench=. -benchmem`
// reprints the paper's rows/series.
package ibcbench_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/app"
	"ibcbench/internal/chain"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/experiments"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/merkle"
	"ibcbench/internal/netem"
	"ibcbench/internal/scenario"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
)

// benchOpts keeps bench iterations affordable; `cmd/ibcbench` runs the
// full sweeps with more seeds.
var benchOpts = experiments.Options{Seeds: 1}

// must returns a driver's result and panics on its error, which fails
// the benchmark.
func must[R any](r R, err error) R {
	if err != nil {
		panic(err)
	}
	return r
}

func BenchmarkFig6TendermintThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := must(experiments.Tendermint(experiments.Options{
			Seeds: 1, Rates: []int{500, 3000, 9000}, Windows: 10,
		}))
		peak := 0.0
		for _, d := range res.Fig6.Y {
			if d.Mean > peak {
				peak = d.Mean
			}
		}
		b.ReportMetric(peak, "peak-TFPS")
	}
}

func BenchmarkFig7BlockInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := must(experiments.Tendermint(experiments.Options{
			Seeds: 1, Rates: []int{500, 9000}, Windows: 10,
		}))
		last := res.Fig7.Y[len(res.Fig7.Y)-1]
		b.ReportMetric(last.Mean, "interval-sec-at-9000rps")
	}
}

func BenchmarkTable1ExecutionSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := must(experiments.Tendermint(experiments.Options{
			Seeds: 1, Rates: []int{3000, 13000}, Windows: 10,
		}))
		row := res.Table1[len(res.Table1)-1]
		b.ReportMetric(100*float64(row.Submitted)/float64(row.Requested), "submitted-pct-at-13000rps")
	}
}

func BenchmarkFig8SingleRelayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := must(experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{100, 140}, Windows: 30,
		}, 1, false))
		peak := 0.0
		for _, p := range pts {
			if p.Throughput.Mean > peak {
				peak = p.Throughput.Mean
			}
		}
		b.ReportMetric(peak, "peak-TFPS")
	}
}

func BenchmarkFig9TwoRelayers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := must(experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{140}, Windows: 30,
		}, 2, false))
		b.ReportMetric(pts[0].Throughput.Mean, "TFPS")
		b.ReportMetric(pts[0].RedundantErrors, "redundant-errors")
	}
}

func BenchmarkFig10CompletionOneRelayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := must(experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{220}, Windows: 30,
		}, 1, false))
		b.ReportMetric(pts[0].Completed, "completed")
		b.ReportMetric(pts[0].Partial, "partial")
		b.ReportMetric(pts[0].Initiated, "initiated")
	}
}

func BenchmarkFig11CompletionTwoRelayers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := must(experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{220}, Windows: 30,
		}, 2, false))
		b.ReportMetric(pts[0].Completed, "completed")
		b.ReportMetric(pts[0].Partial, "partial")
	}
}

func BenchmarkFig12LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := must(experiments.Fig12(5000, int64(42+i)))
		b.ReportMetric(res.Total.Seconds(), "total-sec")
		pulls := res.TransferDataPull + res.RecvDataPull
		b.ReportMetric(100*pulls.Seconds()/res.Total.Seconds(), "datapull-pct")
	}
}

func BenchmarkFig13SubmissionStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := must(experiments.Fig13(5000, []int{1, 16, 64}, int64(7+i)))
		b.ReportMetric(rows[0].Completion.Seconds(), "1-block-sec")
		b.ReportMetric(rows[1].Completion.Seconds(), "16-block-sec")
		b.ReportMetric(rows[2].Completion.Seconds(), "64-block-sec")
	}
}

func BenchmarkGasPerMessageClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := must(experiments.GasTable(int64(3 + i)))
		for _, r := range rows {
			b.ReportMetric(float64(r.Measured), "gas-"+r.MsgType)
		}
	}
}

func BenchmarkWebSocketLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := must(experiments.WebSocketLimit(int64(5+i), 1000, 60))
		total := float64(res.Transfers)
		b.ReportMetric(100*float64(res.Completed)/total, "completed-pct")
		b.ReportMetric(100*float64(res.Stuck)/total, "stuck-pct")
	}
}

// --- hot-path benchmarks (shared event index + incremental commits) ----------

// benchBlock assembles one committed block's TxInfos: txs transactions,
// each carrying msgs send_packet events round-robined over nChans channels.
func benchBlock(txs, msgs, nChans int) []*store.TxInfo {
	infos := make([]*store.TxInfo, txs)
	for i := range infos {
		events := make([]abci.Event, msgs)
		m := make([]app.Msg, msgs)
		for j := range events {
			p := ibc.Packet{
				SourcePort:    "transfer",
				SourceChannel: fmt.Sprintf("channel-%d", (i+j)%nChans),
				DestPort:      "transfer",
				DestChannel:   "channel-9",
				Sequence:      uint64(i*msgs + j + 1),
			}
			events[j] = abci.Event{Type: "send_packet", Data: &p}
			m[j] = &ibc.MsgRecvPacket{Packet: p}
		}
		infos[i] = &store.TxInfo{
			Height: 1,
			Index:  i,
			Tx:     app.NewTx(fmt.Sprintf("signer-%d", i), 0, uint64(i), m),
			Result: abci.TxResult{Events: events},
		}
	}
	return infos
}

// BenchmarkEventDecode measures the single shared indexing pass over one
// block against the pre-index behaviour of K relayer endpoints each
// scanning the block for their own channel.
func BenchmarkEventDecode(b *testing.B) {
	infos := benchBlock(20, 100, 4)
	b.Run("shared-index-1pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			be := eventindex.Decode(1, 0, infos)
			if len(be.Txs) != 20 {
				b.Fatal("decode lost txs")
			}
		}
	})
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("per-relayer-%dpasses", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < k; r++ {
					eventindex.Decode(1, 0, infos)
				}
			}
		})
	}
}

// recvAckRounds is a linked two-chain testbed, driven without consensus,
// with a number of prepared rounds: one transaction of 100 MsgRecvPackets
// for chain B and the transaction of 100 MsgAcknowledgements that answers
// it on chain A — the relayer's two full batches, and the keeper path
// every completed packet of every workload crosses twice.
type recvAckRounds struct {
	a, b      *chain.Chain
	recv, ack []*app.Tx
}

func newRecvAckRounds(tb testing.TB, rounds int) *recvAckRounds {
	tb.Helper()
	const msgs, proofHeight = 100, 2
	sched := sim.NewScheduler()
	network := netem.New(sched, sim.NewRNG(1), netem.DefaultWAN())
	pair := chain.Link(
		chain.New(sched, network, chain.Config{ChainID: "ibc-0"}),
		chain.New(sched, network, chain.Config{ChainID: "ibc-1"}))
	r := &recvAckRounds{a: pair.A, b: pair.B}
	must := func(c *chain.Chain, tx *app.Tx) abci.TxResult {
		res := c.App.DeliverTx(tx)
		if !res.IsOK() {
			tb.Fatalf("%s: %s", c.ID, res.Log)
		}
		return res
	}
	r.a.App.CreateAccount("alice", app.Coin{Denom: "uatom", Amount: 1 << 40})
	r.a.App.CreateAccount("relayer")
	r.b.App.CreateAccount("relayer")
	r.a.App.BeginBlock(1, 5*time.Second)
	r.b.App.BeginBlock(1, 5*time.Second)
	// Both clients learn the counterparty height the proofs refer to.
	must(r.a, app.NewTx("relayer", 0, 0, []app.Msg{&ibc.MsgUpdateClient{ClientID: pair.ClientOnA,
		Bundle: ibc.HeaderBundle{Header: types.Header{ChainID: r.b.ID, Height: proofHeight}}}}))
	must(r.b, app.NewTx("relayer", 0, 0, []app.Msg{&ibc.MsgUpdateClient{ClientID: pair.ClientOnB,
		Bundle: ibc.HeaderBundle{Header: types.Header{ChainID: r.a.ID, Height: proofHeight}}}}))
	ack := ibc.Acknowledgement{Result: []byte("AQ==")}.Bytes()
	for round := 0; round < rounds; round++ {
		send := make([]app.Msg, msgs)
		for j := range send {
			send[j] = &transfer.MsgTransfer{
				Sender: "alice", Receiver: "bob", Token: app.Coin{Denom: "uatom", Amount: 1},
				SourcePort: pair.Port, SourceChannel: pair.ChannelAB,
				TimeoutHeight: 1 << 40, Nonce: uint64(round*msgs + j),
			}
		}
		tx := app.NewTx("alice", uint64(round), uint64(round), send)
		sent := eventindex.Decode(1, 0, []*store.TxInfo{{Height: 1, Tx: tx, Result: must(r.a, tx)}})
		recvMsgs := make([]app.Msg, msgs)
		ackMsgs := make([]app.Msg, msgs)
		for j, p := range sent.Txs[0].SendPackets(pair.ChannelAB) {
			recvMsgs[j] = &ibc.MsgRecvPacket{Packet: *p, ProofHeight: proofHeight, Relayer: "relayer"}
			ackMsgs[j] = &ibc.MsgAcknowledgement{Packet: *p, Ack: ack, ProofHeight: proofHeight, Relayer: "relayer"}
		}
		r.recv = append(r.recv, app.NewTx("relayer", uint64(round+1), uint64(round+1), recvMsgs))
		r.ack = append(r.ack, app.NewTx("relayer", uint64(round+1), uint64(round+1), ackMsgs))
	}
	return r
}

// deliver executes one prepared round: the receive batch on B, then the
// acknowledgement batch on A.
func (r *recvAckRounds) deliver(tb testing.TB, round int) {
	if res := r.b.App.DeliverTx(r.recv[round]); !res.IsOK() {
		tb.Fatalf("recv round %d: %s", round, res.Log)
	}
	if res := r.a.App.DeliverTx(r.ack[round]); !res.IsOK() {
		tb.Fatalf("ack round %d: %s", round, res.Log)
	}
}

// BenchmarkKeeperRecvAck measures the keeper's packet path alone: each
// iteration executes a 100-message receive transaction and the matching
// 100-message acknowledgement transaction on an open channel. Every
// message reads the same channel end, connection end and consensus
// state, so allocs/op shows whether those are decoded once or per message.
func BenchmarkKeeperRecvAck(b *testing.B) {
	b.ReportAllocs()
	r := newRecvAckRounds(b, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.deliver(b, i)
	}
}

// TestKeeperRecvAckAllocs puts a ceiling on the same round. With the
// stored channel, connection and consensus state decoded per message it
// took about 13 300 allocations and decoded once about 6 900; with the
// packet handed over in the event and the ack and packet data read
// without encoding/json about 4 400; with app.State writing through to
// its map under an undo journal 3 681; with every state key built on the
// stack and copied only on its first insert 2 012; with message digests
// appended into the tx hash, the voucher denom read off the packet's
// denom string and the success ack a shared literal 1 012; with every
// receipt storing one shared value 912; with packet commitments,
// receipts and acks in per-channel tables, where a record makes no key
// string, 712; it took 516 when the host objects came to live typed in
// the store, which left it there: a read had already decoded nothing.
// With the packet data read in place, the voucher denom appended into the
// bank's key buffer and the emitted acknowledgements cut from the
// keeper's chunk, 17; with each transaction's event list cut from the
// app's chunk at one event per message, 9; with one context per app,
// reset for each transaction, 7: what is left is the chunk blocks
// values, acknowledgements and event lists are cut from. The ceiling is
// the count under the race detector (CI runs the package with -race),
// whose instrumentation adds 11.
func TestKeeperRecvAckAllocs(t *testing.T) {
	const runs, ceiling = 5, 18
	r := newRecvAckRounds(t, runs+1) // AllocsPerRun adds a warm-up call
	round := 0
	got := testing.AllocsPerRun(runs, func() {
		r.deliver(t, round)
		round++
	})
	if got > ceiling {
		t.Fatalf("a 100-message recv tx plus ack tx took %.0f allocations, ceiling %d", got, ceiling)
	}
	t.Logf("%.0f allocations per round", got)
}

// BenchmarkStateCommit measures block commits in full-proof mode: the
// incremental path folds only the block's dirty keys into cached leaf
// hashes, versus the old full merkle.NewTree rebuild over the state map.
// The ratios to pin: a value-only block is ~40x cheaper than
// full-rebuild, and a block with inserts costs no more than it however
// many it carries. The records pair commits packet records as a
// full-proof hub chain writes them, into per-table arrays (records)
// against the same writes as string keys of the one sorted tree, where
// each early insert re-hashes every leaf right of it (records-as-keys).
func BenchmarkStateCommit(b *testing.B) {
	const preload, dirtyPerBlock = 4096, 32
	seedState := func(s *app.State) {
		for i := 0; i < preload; i++ {
			s.Set(fmt.Appendf(nil, "key/%05d", i), fmt.Appendf(nil, "val-%d", i))
		}
		s.CommitTx()
		s.Commit(1)
	}
	b.Run("incremental", func(b *testing.B) {
		s := app.NewState(true)
		seedState(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := 0; d < dirtyPerBlock; d++ {
				s.Set(fmt.Appendf(nil, "key/%05d", (i*dirtyPerBlock+d*7)%preload), fmt.Appendf(nil, "v%d", i))
			}
			s.CommitTx()
			s.Commit(int64(i + 2))
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		// The pre-refactor cost model: rebuild the whole tree per commit.
		kv := make(map[string][]byte, preload)
		for i := 0; i < preload; i++ {
			kv[fmt.Sprintf("key/%05d", i)] = []byte(fmt.Sprintf("val-%d", i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := 0; d < dirtyPerBlock; d++ {
				kv[fmt.Sprintf("key/%05d", (i*dirtyPerBlock+d*7)%preload)] = []byte(fmt.Sprintf("v%d", i))
			}
			if merkle.NewTree(kv).Root() == (merkle.Hash{}) {
				b.Fatal("zero root")
			}
		}
	})
	b.Run("incremental-with-inserts", func(b *testing.B) {
		s := app.NewState(true)
		seedState(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A block's realistic mix: new packet commitments plus balance
			// updates.
			for d := 0; d < dirtyPerBlock/2; d++ {
				s.Set(fmt.Appendf(nil, "commitments/%d/%d", i, d), []byte("c"))
				s.Set(fmt.Appendf(nil, "key/%05d", (i+d*11)%preload), fmt.Appendf(nil, "v%d", i))
			}
			s.CommitTx()
			s.Commit(int64(i + 2))
		}
	})
	// Each block writes, on each of four channels, 16 new commitments,
	// the receipts and acks of 16 packets received, and deletes the 16
	// commitments the block before wrote (acked): the span of sequences
	// in flight that hub4-2r-proofs keeps. One of the chain's 84 string
	// keys per channel rides along. The first 100 blocks, untimed, take
	// each table past sequence 1 600.
	records := func(b *testing.B, asKeys bool) {
		const channels, perBlock, warm = 4, 16, 100
		s := app.NewState(true)
		for i := 0; i < 84; i++ {
			s.Set(fmt.Appendf(nil, "key/%05d", i), fmt.Appendf(nil, "val-%d", i))
		}
		value := []byte("0123456789abcdef0123456789abcdef")
		var kb [app.KeyBufLen]byte
		write := func(kind app.RecordKind, ch int, seq uint64, del bool) {
			r := ibc.PacketRecords(kb[:0], kind, "transfer", fmt.Sprintf("channel-%d", ch))
			switch {
			case asKeys && del:
				s.Delete(strconv.AppendUint(r.Prefix, seq, 10))
			case asKeys:
				s.Set(strconv.AppendUint(r.Prefix, seq, 10), value)
			case del:
				s.DeleteRecord(&r, seq)
			default:
				s.SetRecord(&r, seq, value)
			}
		}
		block := func(i int) {
			for ch := 0; ch < channels; ch++ {
				for d := 0; d < perBlock; d++ {
					seq := uint64(i*perBlock + d + 1)
					write(app.Commitment, ch, seq, false)
					write(app.Receipt, ch, seq, false)
					write(app.Ack, ch, seq, false)
					if i > 0 {
						write(app.Commitment, ch, seq-perBlock, true)
					}
				}
				s.Set(fmt.Appendf(nil, "key/%05d", ch), fmt.Appendf(nil, "v%d", i))
			}
			s.CommitTx()
			s.Commit(int64(i + 1))
		}
		for i := 0; i < warm; i++ {
			block(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			block(warm + i)
		}
	}
	b.Run("records", func(b *testing.B) { records(b, false) })
	b.Run("records-as-keys", func(b *testing.B) { records(b, true) })
	b.Run("incremental-many-inserts", func(b *testing.B) {
		// 256 new keys spread over the whole key space per block, each
		// block also deleting the previous block's, so the tree stays at
		// 4 096 + 256 leaves whatever b.N is (the untimed first block
		// takes it there, across the power of two). The merge pass moves
		// each leaf once per direction where a shift per edit moved half
		// the tree 512 times; what is left is the re-hash of the inner
		// nodes right of the first insert.
		const inserts = 256
		s := app.NewState(true)
		seedState(s)
		block := func(i int) {
			for d := 0; d < inserts; d++ {
				at := d * (preload / inserts)
				s.Set(fmt.Appendf(nil, "key/%05d/%d", at, i), []byte("c"))
				s.Delete(fmt.Appendf(nil, "key/%05d/%d", at, i-1))
			}
			s.CommitTx()
			s.Commit(int64(i + 3))
		}
		block(-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			block(i)
		}
	})
}

// BenchmarkVoteFanout measures consensus block production as the
// validator set grows. Votes travel unsigned and unverified; commit
// assembly signs only the precommits a block's commit carries, so
// per-height signature work is the 2/3+ quorum's signing alone
// (signs-per-block). Blocks-per-virtual-minute must not move.
func BenchmarkVoteFanout(b *testing.B) {
	runChain := func(b *testing.B, vals int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sched := sim.NewScheduler()
			rng := sim.NewRNG(int64(31 + i))
			network := netem.New(sched, rng, netem.DefaultWAN())
			c := chain.New(sched, network, chain.Config{ChainID: "fanout", Validators: vals})
			c.Start()
			if err := sched.RunUntil(60 * time.Second); err != nil {
				b.Fatal(err)
			}
			if c.Store.Height() == 0 {
				b.Fatal("no blocks committed")
			}
			b.ReportMetric(float64(c.Store.Height()), "blocks-per-vmin")
			b.ReportMetric(float64(c.Engine.VoteCache().Stats().Signed)/float64(c.Store.Height()), "signs-per-block")
		}
	}
	for _, vals := range []int{5, 9, 13} {
		b.Run(fmt.Sprintf("vals-%d", vals), func(b *testing.B) { runChain(b, vals) })
	}
}

// BenchmarkScenarioRunChecks measures what the per-commit checks cost a
// run: the two-peak benchmark workload at seed 11 through scenario.Run
// with the default assertions (on: the per-commit checks, then the
// quiescent Check), and through Compile, RunDeployed and Check, the
// benchmark's own path (off: the quiescent Check alone).
func BenchmarkScenarioRunChecks(b *testing.B) {
	data, err := os.ReadFile("bench/workloads/two-peak.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := scenario.Run(spec, 11, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Passed() {
				b.Fatalf("violations: %v", rep.Violations)
			}
		}
	})
	b.Run("off", func(b *testing.B) {
		sc, err := scenario.Compile(spec)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			_, d, err := sc.RunDeployed(11)
			if err != nil {
				b.Fatal(err)
			}
			if v := scenario.Check(d, nil); len(v) > 0 {
				b.Fatalf("violations: %v", v)
			}
		}
	})
}
