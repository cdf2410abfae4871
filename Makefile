GO ?= go

# Seconds each fuzzer runs in the smoke target; CI uses the same knob.
FUZZ_SMOKE_TIME ?= 30s

# Seeds the chaos target sweeps; each runs the fault-injection suite once.
CHAOS_SEEDS ?= 1 7 42

.PHONY: all build test race vet lint fuzz-smoke fmt-check chaos failover election windows benchmark-check examples profile-miss profile-batch profile-update profile-tcp-update ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every custom analyzer (integrade-lint -list names them), then staticcheck
# and govulncheck when they are on PATH; go vet is the vet target. The
# external tools are optional locally — this module has no third-party deps
# and offline containers cannot install them — but CI installs pinned
# versions, so their findings still gate merges.
lint:
	$(GO) run ./cmd/integrade-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "== staticcheck =="; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "== govulncheck =="; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it pinned)"; \
	fi

# Short fuzz runs over the wire decoders: the constraint compiler, the ORB
# framing layer, the Information Update body, the Reserve and Execute
# messages, the Submit body and the AppStatus reply, and the
# consensus/replication payload decoders. Any crasher fails the target.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzCompile -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/constraint
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/orb
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshal -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/orb
	$(GO) test -run=^$$ -fuzz=FuzzDecodeUpdate -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/protocol
	$(GO) test -run=^$$ -fuzz=FuzzDecodeReserveRequest -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/protocol
	$(GO) test -run=^$$ -fuzz=FuzzDecodeReserveReply -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/protocol
	$(GO) test -run=^$$ -fuzz=FuzzDecodeExecuteRequest -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/protocol
	$(GO) test -run=^$$ -fuzz=FuzzDecodeApplicationSpec -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/protocol
	$(GO) test -run=^$$ -fuzz=FuzzDecodeAppStatus -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/protocol
	$(GO) test -run=^$$ -fuzz=FuzzAppendEntries -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/election
	$(GO) test -run=^$$ -fuzz=FuzzReplicaBatch -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/grm

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fault-injection suite under the race detector, swept over fixed seeds.
# CHAOS_SEED parameterizes the seeded-trace tests; the packages cover the
# chaos engine itself, the ORB client's call budget, the trader's concurrent
# writers and readers, the GRM failure detector, and the end-to-end
# crash/recovery paths in core. Then, ten times each under the race detector,
# since one run may miss a schedule: the trader's tests that race lock-free
# walks against in-place upserts, appends and writes to held offers, the
# GRM's failure sweep racing heartbeats that rewrite their node records'
# window arrays in place while a replica-set leader flushes, and replies
# whose buffers Op.Invoke recycles while late deliveries read their own.
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos suite, seed $$seed =="; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			./internal/chaos ./internal/orb ./internal/trading ./internal/grm ./internal/core || exit 1; \
	done
	@echo "== trader races, ten runs =="
	$(GO) test -race -count=10 \
		-run 'TestVisitRacesInPlaceUpserts|TestVisitRacesAppends|TestHeldPointersNeverChange' \
		./internal/trading
	@echo "== GRM window-record races, ten runs =="
	$(GO) test -race -count=10 -run '^TestSweepRacingHeartbeats$$' ./internal/grm
	@echo "== recycled replies under late delivery, ten runs =="
	$(GO) test -race -count=10 -run '^TestRecycledRepliesUnderLateDelivery$$' ./internal/chaos

# GRM failover suite under the race detector, swept over the same fixed
# seeds: what a replica set's followers mirror from the log (the incumbent's
# state, availability windows, departures, the admission queue, and a seeded
# mix of every transition checked against the leader after each flush), LRM
# re-registration and the reconcile exchange, plus the end-to-end recovery
# scenarios (a leader crash mid-superstep, a leader crash during a
# registration burst, and two cold rebuilds in a row).
failover:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== failover suite, seed $$seed =="; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Failover|Replica|Mirror|Foreign|Reconcile' \
			./internal/core ./internal/grm || exit 1; \
	done

# Consensus control-plane suite under the race detector, swept over the same
# fixed seeds: leader election and log replication in internal/election,
# epoch fencing in the LRM, the term-1 epoch of a GRM and its replica set's
# bootstrap, quorum replication in the GRM, and the end-to-end replica-set
# scenarios in core (leader crash, split-brain partition with fencing).
election:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== election suite, seed $$seed =="; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			./internal/election || exit 1; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Consensus|Election|Epoch|Fenc|Quorum|Bootstrap|TermOne' \
			./internal/core ./internal/grm ./internal/lrm || exit 1; \
	done

# Availability-window suite under the race detector, swept over the same
# fixed seeds: the chaos flap primitive and its seeded determinism, the
# usage-trace window scans, the LUPA forecast accuracy floors, the BSP
# forced pre-departure checkpoint, the LRM departure drain, the GRM window
# filter + graceful-departure fast path (and their replication round-trip),
# and the end-to-end intermittent-fleet drain in core.
windows:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== windows suite, seed $$seed =="; \
		CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Flap|Window|Depart|Drain|Forecast|RequestCheckpoint' \
			./internal/chaos ./internal/usage ./internal/lupa ./internal/bsp \
			./internal/lrm ./internal/grm ./internal/core || exit 1; \
	done

# The repository benchmark's self-test (BENCHMARK.json, benchmark/README.md):
# its own tests, then a quick traced run — small fleets, two short rounds —
# with the determinism guard and the brute-force oracle on. Not a
# measurement; traces land in benchmark/out/. Then the allocation gates
# (internal/orb, internal/grm and internal/trading testdata/alloc_budget.txt,
# the protocol encoders' one allocation per message, and
# TestDecodeUpdateAllocBudget: an update decoded against its node's record
# allocates only its windows), which skip some or
# all of their rows under -race and so run here without it. Then one iteration each
# of the micro-benchmarks ROADMAP items 2, 3 and 6 quote, so they keep compiling
# and running (BenchmarkTCPInvoke minus BenchmarkTCPRawEcho is what the ORB
# adds to a round trip; BenchmarkLoopbackUpdate10k, BenchmarkRegister10k and
# the trader's upserts and first exports walk their fleets in a shuffled order,
# as the workloads do).
benchmark-check:
	$(GO) test -count=1 ./benchmark
	$(GO) run ./benchmark -quick -traced
	$(GO) test -count=1 -run 'AllocBudget|AllocateOnce' ./internal/orb ./internal/grm ./internal/trading ./internal/protocol
	$(GO) test -run '^$$' -bench 'BenchmarkPlacementMiss(Churned)?10k|BenchmarkPlacementBatch10k|BenchmarkLoopbackUpdate10k|BenchmarkRegister10k|BenchmarkEvalFleet|BenchmarkExportKeyedUpsert|BenchmarkPlaceUpsert|BenchmarkExportFirst10k|BenchmarkTCPDeepServant|BenchmarkTCPUpdateSweep|BenchmarkTCPGangPlacement|BenchmarkTCPRawEcho|BenchmarkTCPInvoke$$' -benchtime 1x ./internal/grm ./internal/constraint ./internal/trading ./internal/orb
	$(GO) test -run '^$$' -bench 'BenchmarkTCPInvokeConcurrent/callers=64' -benchtime 1x ./internal/orb

# Every program under examples/ must run to completion and exit 0.
# usageforecast's output is deterministic, so its stdout must also equal
# examples/usageforecast/testdata/output.txt byte for byte.
examples:
	@for ex in quickstart render marketsim widearea gridpi; do \
		echo "== examples/$$ex =="; \
		$(GO) run ./examples/$$ex >/dev/null || exit 1; \
	done
	@echo "== examples/usageforecast =="
	@out=$$($(GO) run ./examples/usageforecast) || exit 1; \
		printf '%s\n' "$$out" | diff -u examples/usageforecast/testdata/output.txt -

# Where a snapshot miss spends its time: BenchmarkPlacementMiss10k under the
# CPU profiler (ROADMAP item 2's per-function shares are this output). Leaves
# placement_miss.prof and its test binary in the working directory.
profile-miss:
	$(GO) test -run '^$$' -bench BenchmarkPlacementMiss10k -benchtime 2000x \
		-cpuprofile placement_miss.prof -o placement_miss.test ./internal/grm
	$(GO) tool pprof -top -nodecount 25 placement_miss.test placement_miss.prof

# Where an admission batch of 16 distinct constraints spends its candidate
# work once one trader walk fills them all and one heap ranks them:
# BenchmarkPlacementBatch10k/shared under the CPU profiler. On a 2-core Xeon
# the trader's block filters take ~55%, the walk's callback ~23% (the policy
# key about half of it), the heap ~6% and the collector ~4%. Leaves
# placement_batch.prof and its test binary in the working directory.
profile-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkPlacementBatch10k/shared' -benchtime 300x \
		-cpuprofile placement_batch.prof -o placement_batch.test ./internal/grm
	$(GO) tool pprof -top -nodecount 25 placement_batch.test placement_batch.prof

# Where an Information Update spends its time, both ends of it:
# BenchmarkLoopbackUpdate10k — GRMClient.Update encoding into a pooled
# Encoder, as the loopback fleets send it, into a GRM that knows 10^4 nodes,
# in a shuffled order, decoded against the node's record, through to the
# trader upsert and the reply — under the CPU profiler (ROADMAP item 6c). On a
# 2-core Xeon the collector's mark (gcDrain) is ~24% cumulative; grm's
# exportStatusOffer ~21%, of which the trader's Upsert through the node's
# place, its 768-B stored offer included, is ~19%; protocol's EncodeUpdate
# ~12% and DecodeUpdate ~9%; recordedIdentity ~9% (the node record's first,
# cold lookup, under g.mu) and recordUpdate ~12%, of which recordStatusLocked
# ~7% and g.mu's unlock ~4%: the unlock waits for the store into the record's
# window array, which a shuffled fleet finds cold. Leaves loopback_update.prof
# and its test binary in the working directory.
profile-update:
	$(GO) test -run '^$$' -bench BenchmarkLoopbackUpdate10k -benchtime 2000000x \
		-cpuprofile loopback_update.prof -o loopback_update.test ./internal/grm
	$(GO) tool pprof -top -nodecount 25 loopback_update.test loopback_update.prof

# Where an Information Update spends its time end to end, sockets included:
# BenchmarkTCPUpdateSweep — 32 LRMs taking turns to SendUpdate to a GRM on
# 127.0.0.1 — under the CPU profiler (ROADMAP item 6). runtime.newstack and
# copystack should be absent: the ORB server serves each request on its
# connection's goroutine, whose stack is already grown (DESIGN.md §13,
# "Stack"). Leaves tcp_update.prof and its test binary in the working
# directory.
profile-tcp-update:
	$(GO) test -run '^$$' -bench BenchmarkTCPUpdateSweep -benchtime 200000x \
		-cpuprofile tcp_update.prof -o tcp_update.test ./internal/grm
	$(GO) tool pprof -top -nodecount 25 tcp_update.test tcp_update.prof

# Everything CI runs, in the same order.
ci: build fmt-check vet lint race chaos failover election windows benchmark-check examples fuzz-smoke
