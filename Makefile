# Developer entry points. CI's virtual-metric gate calls `make
# virt-gate`, tier-1's TestWorkLedger compares every benchmark workload
# with BENCH_work.json, and TestFidelity the paper's findings with
# FIDELITY.json; refresh a committed baseline with the
# rebaseline targets whenever an intentional change moves the gated
# metrics, and commit the result.

GO ?= go

# Recipes use bash: rebaseline-bench needs `set -o pipefail`, which a
# /bin/sh that is dash rejects.
SHELL := /bin/bash

.PHONY: test check fuzz bench bench-test virt-gate rebaseline-virt rebaseline-work rebaseline-bench serve reach

test:
	$(GO) build ./... && $(GO) test ./...

check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -short ./...

# Bounded run of the native fuzz targets (CI's "Differential fuzz"
# step): the append codecs of the two hashed per-packet documents against
# encoding/json in both directions, the encoders of the four stored host
# objects (client, consensus, connection and channel states) against
# json.Marshal, merkle.IncTree.Apply's roots and proofs against
# the full-rebuild merkle.NewTree, merkle.ArrayTree.Apply's roots, paths
# and two-level record proofs against merkle.HashLeaves over the dense
# leaf array, merkle.Verifier's verdicts against merkle.VerifyMembership's
# and merkle.VerifyRecord's, app.State's undo
# journal and proofs against a map-copy-per-tx model whose full-proof
# root rebuilds each table's array, the scenario spec's parse ⇄ encode round trip,
# VerifyCommit on mutated commits against a naive per-signature model, the
# denom trace's parse ⇄ string and prefix round trips, the
# forward-memo parser's validation and round trip and its in-place
# reader against encoding/json, the forwarding middleware's in-flight
# record encoder against json.Marshal, the packet
# tracker's per-channel table against a map-keyed model, the relayer's
# per-endpoint packet table against a map-keyed model over a destination
# chain's ground truth (no timeout for a received packet), the trace
# validator on arbitrary bytes (it must never panic), the store's
# journal replay on arbitrary index bytes (it must never panic or keep
# a line that does not parse), bench2json on arbitrary bytes (it
# must never panic, and whatever it accepts must marshal to JSON), and
# the scheduler's heap with cancellation against a sorted-slice model.
# The store target writes files on every
# input, so it caps minimization, which would otherwise spend the whole
# run shrinking its first new input. A
# failure leaves its input under the package's testdata/fuzz/; commit it
# with the fix.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzAckCodec -fuzztime 10s ./internal/ibc
	$(GO) test -run '^$$' -fuzz FuzzStoredObjectCodecs -fuzztime 10s ./internal/ibc
	$(GO) test -run '^$$' -fuzz FuzzPacketDataCodec -fuzztime 10s ./internal/ibc/transfer
	$(GO) test -run '^$$' -fuzz FuzzIncTreeApply -fuzztime 10s ./internal/merkle
	$(GO) test -run '^$$' -fuzz FuzzArrayTree -fuzztime 10s ./internal/merkle
	$(GO) test -run '^$$' -fuzz FuzzVerifier -fuzztime 10s ./internal/merkle
	$(GO) test -run '^$$' -fuzz FuzzStateJournal -fuzztime 10s ./internal/app
	$(GO) test -run '^$$' -fuzz FuzzSpecRoundTrip -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzVerifyCommit -fuzztime 10s ./internal/tendermint/types
	$(GO) test -run '^$$' -fuzz FuzzDenomTrace -fuzztime 10s ./internal/ibc/denom
	$(GO) test -run '^$$' -fuzz FuzzParseMemo -fuzztime 10s ./internal/ibc/pfm
	$(GO) test -run '^$$' -fuzz FuzzInFlightCodec -fuzztime 10s ./internal/ibc/pfm
	$(GO) test -run '^$$' -fuzz FuzzTracker -fuzztime 10s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzRelayerPackets -fuzztime 10s ./internal/relayer
	$(GO) test -run '^$$' -fuzz FuzzTracecheck -fuzztime 10s ./internal/tracecheck
	$(GO) test -run '^$$' -fuzz FuzzStoreReplay -fuzztime 10s -fuzzminimizetime 100x ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzBench2JSON -fuzztime 10s ./cmd/ibcbench
	$(GO) test -run '^$$' -fuzz FuzzSchedulerQueue -fuzztime 10s ./internal/sim

# The host-cost benchmark (bench/, a module of its own that the targets
# above skip): the full report over the five pinned workloads, and the
# benchmark's own tests. Everything it writes stays under .bench_build/.
bench:
	bash bench/run.sh

bench-test:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# The armed 0.1% virtual-metric gates (CI's "Virtual-metric regression
# gate" step runs virt-gate) and the refresh of their baselines, one
# sweep command line per gate for both: virtual-clock results are
# deterministic per seed, so a fresh file differs from the committed one
# only when simulation behavior moved. The second gate is the failover
# sweep on the 3wan region table, the one run of the CLI that places
# hosts in regions. rebaseline-virt also rewrites FIDELITY.json, the
# paper's findings at `sweep -experiment all -seeds 1`, which tier-1's
# TestFidelity compares and which moves only when simulation behavior
# moves too.
VIRT_SWEEP = $(GO) run ./cmd/ibcbench sweep -experiment topo -topology hub:3 -rate 5 -seeds 2 -windows 3
VIRT_3WAN_SWEEP = $(GO) run ./cmd/ibcbench sweep -experiment failover -topology hub:3 -regions 3wan -rate 2 -seeds 1 -windows 2

virt-gate:
	$(VIRT_SWEEP) -out VIRT_ci.json
	$(GO) run ./cmd/ibcbench diff VIRT_baseline.json VIRT_ci.json -fail-on-change 0.1
	$(VIRT_3WAN_SWEEP) -out VIRT_3wan_ci.json
	$(GO) run ./cmd/ibcbench diff VIRT_3wan_baseline.json VIRT_3wan_ci.json -fail-on-change 0.1

rebaseline-virt:
	$(VIRT_SWEEP) -out VIRT_baseline.json
	$(VIRT_3WAN_SWEEP) -out VIRT_3wan_baseline.json
	$(GO) test -run '^TestFidelity$$' -count=1 . -update

# Refresh BENCH_work.json, the exact half of the host-cost benchmark:
# per bench/workloads/*.json at the benchmark's own seed, the result
# fingerprint, the work counts, allocs_per_pkt, bytes_per_pkt and
# setup_allocs (allocations of one Parse + Compile + topo.Deploy), and
# the Go toolchain that measured them. TestWorkLedger compares the
# allocation fields only on that toolchain's go1.N, so run this on the
# release CI's ledger leg uses (go 1.24). A PR's before/after row is the
# file's git diff.
rebaseline-work:
	$(GO) test -run '^TestWorkLedger$$' -count=1 . -update

# Refresh BENCH_baseline.json — the micro-benchmark trajectory. Mirrors
# the CI bench job's "Hot-path benchmarks" step; run on a quiet machine.
rebaseline-bench:
	set -o pipefail; \
	$(GO) test -run '^$$' -bench 'BenchmarkVoteFanout|BenchmarkStateCommit|BenchmarkEventDecode|BenchmarkKeeperRecvAck|BenchmarkScenarioRunChecks' -benchtime=3x -count=3 . | tee bench_raw.txt; \
	$(GO) test -run '^$$' -bench 'BenchmarkNetemSend' -benchtime=3x -count=3 ./internal/netem | tee -a bench_raw.txt; \
	$(GO) test -run '^$$' -bench 'BenchmarkQuorumTally' -benchtime=100x -count=3 ./internal/tendermint/consensus | tee -a bench_raw.txt
	$(GO) run ./cmd/ibcbench bench2json bench_raw.txt -out BENCH_baseline.json
	rm -f bench_raw.txt

# Reachability report, a measuring tool and not a gate: build ibcbench
# and the benchmark (bench/, whose children read counters no command
# prints) with coverage over every package into .reach/, run the
# commands a user runs (the benchmark workloads, every built-in scenario
# `suite -lint` names, the testdata scenarios, the full sweep, a chaos
# search, the short suite and both trace tools) and one observed
# benchmark child per workload, then print every function under
# internal/ that none of them executed. The service
# and viewer packages are left out: the service runs no simulation. The
# planted search finds its counterexample and exits 1, by design. About a
# minute on two cores.
REACH = .reach
REACH_SKIP = ibcbench/internal/(serve|store|resultdiff|traceview|tracecheck)/

reach:
	rm -rf $(REACH) && mkdir -p $(REACH)/cov
	$(GO) build -cover -coverpkg=ibcbench/... -o $(REACH)/ibcbench ./cmd/ibcbench
	GOPROXY=off $(GO) build -C bench -cover -coverpkg=ibcbench/... -o $(CURDIR)/$(REACH)/bench .
	set -e; export GOCOVERDIR=$(CURDIR)/$(REACH)/cov; bin=$(REACH)/ibcbench; \
	for w in bench/workloads/*.json; do $$bin run -scenario $$w -seed 11 -out $(REACH)/out.json >/dev/null; \
		$(REACH)/bench -child -workload $$(basename $$w .json) -seed 11 -mode obs >/dev/null; done; \
	for x in $$($$bin suite -lint | sed -n 's/^lint \(.*\): ok$$/\1/p'); do $$bin run -name $$x -out $(REACH)/out.json >/dev/null; done; \
	for s in internal/scenario/testdata/*.json; do $$bin run -scenario $$s >/dev/null; done; \
	$$bin sweep -experiment all -transfers 500 -out $(REACH)/out.json >/dev/null; \
	$$bin search -scenario internal/scenario/testdata/planted.json -budget 6 >/dev/null || true; \
	$$bin suite -short >/dev/null; \
	$$bin run -name pfmroute -trace $(REACH)/trace.json >/dev/null; \
	$$bin trace -validate $(REACH)/trace.json >/dev/null; \
	$$bin trace -analyze $(REACH)/trace.json >/dev/null
	@$(GO) tool covdata func -i $(REACH)/cov | grep -E '[[:space:]]0\.0%$$' | grep '^ibcbench/internal/' | grep -v -E '^$(REACH_SKIP)' | tee $(REACH)/unreached.txt
	@echo "$$(wc -l < $(REACH)/unreached.txt) functions under internal/ unreached"

# Local experiment service over the default store directory.
serve:
	$(GO) run ./cmd/ibcbench serve -store ibcbench-store -addr 127.0.0.1:8321
