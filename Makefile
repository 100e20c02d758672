# Developer entry points. CI's virtual-metric gate calls `make
# virt-gate`; refresh a committed baseline with the rebaseline targets
# whenever an intentional change moves the gated metrics, and commit the
# result.

GO ?= go

.PHONY: test check fuzz bench bench-test virt-gate rebaseline-virt rebaseline-bench serve

test:
	$(GO) build ./... && $(GO) test ./...

check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -short ./...

# Bounded run of the native fuzz targets (CI's "Differential fuzz"
# step): the append codecs of the two hashed per-packet documents against
# encoding/json in both directions, merkle.IncTree.Apply against the
# full-rebuild merkle.NewTree, app.State's undo journal against a
# map-copy-per-tx model, the scenario spec's parse ⇄ encode round trip,
# the sign-on-demand vote cache against an eager-signing model, the
# denom trace's parse ⇄ string and prefix round trips, the
# forward-memo parser's validation and round trip, and the packet
# tracker's per-channel table against a map-keyed model. A
# failure leaves its input under the package's testdata/fuzz/; commit it
# with the fix.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzAckCodec -fuzztime 10s ./internal/ibc
	$(GO) test -run '^$$' -fuzz FuzzPacketDataCodec -fuzztime 10s ./internal/ibc/transfer
	$(GO) test -run '^$$' -fuzz FuzzIncTreeApply -fuzztime 10s ./internal/merkle
	$(GO) test -run '^$$' -fuzz FuzzStateJournal -fuzztime 10s ./internal/app
	$(GO) test -run '^$$' -fuzz FuzzSpecRoundTrip -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzVoteCache -fuzztime 10s ./internal/tendermint/votesig
	$(GO) test -run '^$$' -fuzz FuzzDenomTrace -fuzztime 10s ./internal/ibc/denom
	$(GO) test -run '^$$' -fuzz FuzzParseMemo -fuzztime 10s ./internal/ibc/pfm
	$(GO) test -run '^$$' -fuzz FuzzTracker -fuzztime 10s ./internal/metrics

# The host-cost benchmark (bench/, a module of its own that the targets
# above skip): the full report over the five pinned workloads, and the
# benchmark's own tests. Everything it writes stays under .bench_build/.
bench:
	bash bench/run.sh

bench-test:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# The armed 0.1% virtual-metric gate (CI's "Virtual-metric regression
# gate" step runs virt-gate) and the refresh of its baseline, one sweep
# command line for both: virtual-clock results are deterministic per
# seed, so the fresh file differs from the committed one only when
# simulation behavior moved.
VIRT_SWEEP = $(GO) run ./cmd/ibcbench sweep -experiment topo -topology hub:3 -rate 5 -seeds 2 -windows 3

virt-gate:
	$(VIRT_SWEEP) -out VIRT_ci.json
	$(GO) run ./cmd/ibcbench diff VIRT_baseline.json VIRT_ci.json -fail-on-change 0.1

rebaseline-virt:
	$(VIRT_SWEEP) -out VIRT_baseline.json

# Refresh BENCH_baseline.json — the micro-benchmark trajectory. Mirrors
# the CI bench job's "Hot-path benchmarks" step; run on a quiet machine.
rebaseline-bench:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench 'BenchmarkVoteFanout|BenchmarkStateCommit|BenchmarkEventDecode|BenchmarkKeeperRecvAck' -benchtime=3x -count=3 . | tee bench_raw.txt; \
	$(GO) test -run '^$$' -bench 'BenchmarkNetemSend' -benchtime=3x -count=3 ./internal/netem | tee -a bench_raw.txt; \
	$(GO) test -run '^$$' -bench 'BenchmarkQuorumTally' -benchtime=100x -count=3 ./internal/tendermint/consensus | tee -a bench_raw.txt
	$(GO) run ./cmd/ibcbench bench2json bench_raw.txt -out BENCH_baseline.json
	rm -f bench_raw.txt

# Local experiment service over the default store directory.
serve:
	$(GO) run ./cmd/ibcbench serve -store ibcbench-store -addr 127.0.0.1:8321
