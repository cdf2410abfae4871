GO ?= go

# Seconds each fuzzer runs in the smoke target; CI uses the same knob.
FUZZ_SMOKE_TIME ?= 30s

.PHONY: all build test race vet lint fuzz-smoke fmt-check benchmark-check examples e2e profile-miss profile-batch profile-update profile-tcp-update ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every test under the race detector; a seeded test runs each of its seeds
# as a subtest (internal/testutil/seeds). Then eleven racing tests ten times
# each, since one run may miss a schedule: the trader's lock-free walks
# against in-place upserts and appends, and the copies Select and All return
# against writes that rewrite the offers they were taken from
# (TestVisitRacesInPlaceUpserts, TestVisitRacesAppends,
# TestSelectCopiesNeverChange), the offers readers keep under a trader hold
# against upserts that rewrite retired offers in place, their own places'
# (TestHeldOffersOutliveUpserts) and the other places'
# (TestHeldOffersOutliveFreeListReuse),
# the GRM's candidates against updates its LRMs feed it mid-negotiation
# (TestReserveFedUpdateKeepsCandidates), the GRM's failure sweep against heartbeats
# that export their nodes' offers while a replica stream flushes
# (TestSweepRacingHeartbeats), updates against departing updates, which take
# their nodes' offers in the one g.mu section an update records and exports
# in, and the sweep (TestDeparturesRacingUpdates), replies whose
# buffers Op.Invoke recycles while late deliveries read their own
# (TestRecycledRepliesUnderLateDelivery),
# an LRM's completions queued into the outbox while updates, some of them
# failing, take it and hand it and their window array back
# (TestSyncTasksRacesSendUpdate), and an LRM's external SendUpdate calls
# against its update loop registering it with a new leader that called
# (TestAdoptRacesSendUpdate). Then the trader's five again at -cpu 1,
# where no reader runs beside a writer and only the schedules the tests hand
# off between them happen (~23 s on a 2-core Xeon). TestRaceRepeatsNameTests
# in internal/lint fails if a name below is no test of the packages after it.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run '^(TestVisitRacesInPlaceUpserts|TestVisitRacesAppends|TestSelectCopiesNeverChange|TestHeldOffersOutliveUpserts|TestHeldOffersOutliveFreeListReuse|TestReserveFedUpdateKeepsCandidates|TestSweepRacingHeartbeats|TestDeparturesRacingUpdates|TestRecycledRepliesUnderLateDelivery|TestSyncTasksRacesSendUpdate|TestAdoptRacesSendUpdate)$$' ./internal/trading ./internal/grm ./internal/chaos ./internal/lrm
	$(GO) test -race -count=10 -cpu 1 -run '^(TestVisitRacesInPlaceUpserts|TestVisitRacesAppends|TestSelectCopiesNeverChange|TestHeldOffersOutliveUpserts|TestHeldOffersOutliveFreeListReuse)$$' ./internal/trading

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
# framing layer and the Decoder it parses frames with, the Information Update body, the Reserve and Execute
# messages, the Submit body and the AppStatus reply, and the
# consensus/replication payload decoders. Any crasher fails the target.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzCompile -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/constraint
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/orb
	$(GO) test -run=^$$ -fuzz=FuzzDecoder -fuzztime=$(FUZZ_SMOKE_TIME) ./internal/orb
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

# The repository benchmark's self-test (BENCHMARK.json, benchmark/README.md):
# its own tests, then a quick traced run — small fleets, two short rounds —
# with the determinism guard and the brute-force oracle on. Not a
# measurement; traces land in benchmark/out/. Then the allocation gates
# (internal/orb, internal/grm and internal/trading testdata/alloc_budget.txt,
# the protocol encoders' one allocation per message, and
# TestDecodeUpdateAllocBudget: an update decoded against its node's record
# allocates only its windows; the grm file's lifecycle-tcp-bytes row is
# TestTCPLifecycleAllocBudget, tcp_lifecycle_32's lifecycle), which skip some or
# all of their rows under -race and so run here without it. Then one iteration each
# of the micro-benchmarks ROADMAP items 2, 3 and 6 quote, so they keep compiling
# and running (BenchmarkTCPInvoke minus BenchmarkTCPRawEcho is what the ORB
# adds to a round trip; BenchmarkLoopbackUpdate2k and 10k, BenchmarkRegister10k and
# the trader's upserts and first exports walk their fleets in a shuffled order,
# as the workloads do).
benchmark-check:
	$(GO) test -count=1 ./benchmark
	$(GO) run ./benchmark -quick -traced
	$(GO) test -count=1 -run 'AllocBudget|AllocateOnce' ./internal/orb ./internal/grm ./internal/trading ./internal/protocol
	$(GO) test -run '^$$' -bench 'BenchmarkPlacementMiss(Churned)?10k|BenchmarkPlacementBatch10k|BenchmarkLoopbackUpdate(2k|10k)|BenchmarkRegister10k|BenchmarkEvalFleet|BenchmarkExportKeyedUpsert|BenchmarkPlaceUpsert|BenchmarkExportFirst10k|BenchmarkWithdraw|BenchmarkTCPDeepServant|BenchmarkTCPUpdateSweep|BenchmarkTCPGangPlacement|BenchmarkTCPLifecycle|BenchmarkTCPRawEcho|BenchmarkTCPInvoke$$' -benchtime 1x ./internal/grm ./internal/constraint ./internal/trading ./internal/orb
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

# The daemons as a cluster on 127.0.0.1 (internal/e2e): the tier-1 happy
# path, then, under the e2e build tag, the leader kill — three managers in a
# replica set, two agents updating every second, SIGKILL to the leader. It
# prints how long each agent took to re-register with the new leader
# (~11 s on a 2-core host), fails above 30 s, and the application must
# complete (~20 s in all).
e2e:
	$(GO) test -count=1 -tags e2e -v ./internal/e2e

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
# 2-core Xeon, cumulative, in one profile: grm's handleUpdate, the one g.mu
# section an update is decoded, recorded and exported in, 69%; of that,
# exportStatusOffer 30%, of which the trader's Upsert through the node's
# place 22%; protocol's DecodeUpdate 22%; recordStatusLocked 5%.
# EncodeUpdate is 14%, string-keyed map lookups 9% (the node record's cold
# one in g.nodes among them), the collector under 1%: an update allocates
# nothing.
# BenchmarkLoopbackUpdateParallel10k sends the same updates from GOMAXPROCS
# senders at once. BenchmarkLoopbackUpdate2k is the same update into 2 000
# nodes, for the fleet size's share. Leaves loopback_update.prof and its test
# binary in the working directory.
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
ci: build fmt-check vet lint race benchmark-check examples e2e fuzz-smoke
