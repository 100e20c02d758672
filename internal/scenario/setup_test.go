package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
)

// Set-up cost guard: one Parse + Compile + topo.Deploy of each benchmark
// workload spec, counted in allocations. This is the deterministic twin
// of the benchmark's setup_s (which times the same three calls and moves
// with host noise): work that a packet-path optimisation pushes into
// construction — a table, a pool, a pre-sized map — shows here exactly.
// The ceilings are the measured counts plus the one-allocation jitter:
// 389/1296/793/3966/4052 since a validator keeps one height's votes in
// one slice instead of five per-round maps. Lower them when set-up gets
// cheaper, and treat a rise as a regression to explain.
func TestSetupAllocsPerWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	for _, w := range []struct {
		name    string
		ceiling float64 // the last digit moves by one between runs
	}{
		{"two-peak", 390},
		{"hub4-2r-proofs", 1297},
		{"line3-pfm-chaos", 794},
		{"mesh8", 3967},
		{"mesh8-par2", 4053},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			spec, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sc.Deploy
			cfg.Seed = 11
			if _, err := topo.Deploy(sc.Topology, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per set-up", w.name, got)
		if got > w.ceiling {
			t.Errorf("%s: set-up took %.0f allocations, ceiling %.0f", w.name, got, w.ceiling)
		}
	}
}

// The keeper emits one *ibc.Packet per send and one *ibc.AckWrite per
// acknowledgement, and the event index, every relayer and the workload
// read that one record without copying it. A reader that wrote through
// its pointer would change what every other reader sees. Two benchmark
// workloads cover the readers: line3-pfm-chaos (forwarded routes,
// timeouts and refunds, standby failover, partitions, drops) and
// hub4-2r-proofs (two relayers per edge, real Merkle proofs). A commit
// hook digests every send and ack record the index holds for the new
// block; at quiescence every record is digested again and must match.
func TestSharedRecordsStayImmutable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two benchmark workloads")
	}
	for _, name := range []string{"line3-pfm-chaos", "hub4-2r-proofs"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 11
			cfg := sc.Deploy
			cfg.Seed = seed
			d, err := topo.Deploy(sc.Topology, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One digest list per chain, in (height, tx, record) order; under
			// the parallel runner each chain's hook runs on its own partition
			// and writes only its own list.
			atCommit := make([][][sha256.Size]byte, len(d.Chains))
			for i, c := range d.Chains {
				c.Engine.OnCommit(func(cb *store.CommittedBlock) {
					atCommit[i] = appendRecordDigests(atCommit[i], c.Events.At(cb.Block.Header.Height))
				})
			}
			if _, err := sc.RunOn(d, seed); err != nil {
				t.Fatal(err)
			}
			records := 0
			for i, c := range d.Chains {
				var now [][sha256.Size]byte
				for h := int64(1); h <= c.Events.Height(); h++ {
					now = appendRecordDigests(now, c.Events.At(h))
				}
				if len(now) != len(atCommit[i]) {
					t.Fatalf("%s: %d records indexed, %d digested at commit", c.ID, len(now), len(atCommit[i]))
				}
				for j := range now {
					if now[j] != atCommit[i][j] {
						t.Fatalf("%s: record %d changed after its block committed", c.ID, j)
					}
				}
				records += len(now)
			}
			if records == 0 {
				t.Fatal("no send or ack records indexed")
			}
			t.Logf("%d send and ack records unchanged at quiescence", records)
		})
	}
}

// appendRecordDigests appends a digest of every send and ack record of
// one indexed block: the packet's ports, channels and sequence, its
// commitment (data and timeouts) and, for an ack, the ack bytes.
func appendRecordDigests(out [][sha256.Size]byte, be *eventindex.BlockEvents) [][sha256.Size]byte {
	packet := func(b []byte, p *ibc.Packet) []byte {
		for _, s := range []string{p.SourcePort, p.SourceChannel, p.DestPort, p.DestChannel} {
			b = append(append(b, s...), 0)
		}
		b = binary.BigEndian.AppendUint64(b, p.Sequence)
		return append(b, p.CommitmentBytes()...)
	}
	for _, te := range be.Txs {
		for _, p := range te.Sends {
			out = append(out, sha256.Sum256(packet([]byte("send"), p)))
		}
		for _, aw := range te.AckWrites {
			out = append(out, sha256.Sum256(append(packet([]byte("ack"), &aw.Packet), aw.Ack...)))
		}
	}
	return out
}
