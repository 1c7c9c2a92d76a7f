GO ?= go

.PHONY: all build test race chaos fuzz bench bench-check serve-smoke solve-smoke shard-smoke vet lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over every package, with -short so the heavyweight
# stress loops run their reduced forms (the full forms run in `test`).
# This includes the telemetry snapshot-under-race tests (counters read
# concurrently with live searches), the recursive-split suite — the
# YBWC nested-abort drain, where a grandparent beta cutoff pre-empts two
# levels of split points, must stay race-clean — and TestOneBodyAgreement,
# which runs every engine entry point and driver at 1, 2 and 4 workers
# with and without a shared table.
race:
	$(GO) test -race -short ./...

# Fault-injection regression suite under the race detector: the shard
# ring's chaos matrix (drop/dup/reorder/delay/crash/stall/partition over
# one seeded faultnet.Injector; every root value must match the
# sequential engine and membership must converge once faults heal), the
# ring's resilience tests (epoch fencing, dead-ring fallback, quarantine,
# crash reissue, rejoin on a new address, the restart fast path on a
# known address (TestPeerRestartFastPath), degraded empty ring and
# recovery, coordinator Close leaving no goroutine), the failure
# protocol's seeded explorer (TestProtocolExplorer: the clock-free
# protocol value driven through generated crash, rejoin, restart, delay,
# duplicate, stale-reply, partition and tick interleavings with no
# network, checking settle-once, the fence, fallback, the load cap, the
# epoch and the folded root after every step; 40 seeds under -short,
# 200 in `test`), the injector's
# determinism and seed-replay tests, the pooled engine's panic-isolation
# traps, and its idle protocol: helpers park after a gap and stay parked
# (TestIdlePoolParks), and Pool.Close leaves no goroutine behind in any
# idle state (TestPoolCloseLeavesNoGoroutines); and the search body's one
# horizon: pooled table searches store only above two plies to go, an
# unlimited search splits, and the principal variation still runs the
# full depth (TestHorizon*); and the cascade (TestCascade*), at two
# levels: as a plain function under a recording dispatch — no network,
# no clock — where the eldest leaf goes out alone, its brothers on the
# window it left, a failing dispatch stops every wave not yet started and
# the function returns only after every concurrent brother, and the root
# matches the sequential engine through an in-process twin at every
# expansion depth (TestCascadeFunc*); and over the ring, where the same
# holds end to end.
# -short trims the seed matrix to fit a CI budget; the full matrix runs in
# `test`.
chaos:
	$(GO) test -race -short -count=1 -run 'ShardChaosMatrix|ProtocolExplorer|EpochFencing|ReissueStaleDeadRing|Quarantine|WorkerCrashReissue|WorkerRejoin|PeerRestart|DegradedEmptyRing|Injector|Seed|Lane|Validate|Panic|YBWC|Park|Close|Horizon|Cascade' \
		./internal/faultnet/ ./internal/shard/ ./internal/engine/

# Fuzzing on a bounded budget, split evenly between ten targets: the
# three decoders of outside input, the explicit-tree S-expression parser
# and binary decoder, the tic-tac-toe board parser, the Connect-4
# bitboard, the canonical Nim and Kayles positions, the table's entry
# word and its proof-number entries:
# the length-prefixed TCP frame reader must never panic or over-allocate
# on arbitrary bytes, the shard envelope codec must never panic, must
# refuse a task with an empty window and must round-trip whatever it
# accepts, the serving layer's position parsers (all five registered
# games) must never panic, must re-parse their own canonical forms to
# themselves, and must expand only to positions that parse, the bitboard
# must agree with the []int8 oracle after any sequence of drops, Nim and
# Kayles must generate exactly one successor per distinct position (the
# Sprague-Grundy value is the mex of theirs) under a hash blind to part
# order and zero parts, and a
# transposition-table entry must unpack to what was packed, with depth,
# best move and generation clamped or wrapped to their fields, and a
# proof-number pair must read back exact up to 0xFFFE (and infinity),
# saturated above it, from an entry alpha-beta sees as BoundPN only.
# The explicit-tree parser and decoder and the board parser must never
# panic, and accept only valid trees and plausible boards.
# The seeded unit forms of all ten already ride in `test` and `race`;
# this throws randomized mutations at them for FUZZTIME in total (whole
# seconds, default 30s) and is wired into the CI race matrix.
FUZZTIME ?= 30s
fuzz:
	each=$$(( $(FUZZTIME:s=) / 10 ))s; \
	$(GO) test -race -run='^$$' -fuzz=FuzzFrameRoundTrip -fuzztime=$$each ./internal/transport/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzEnvelopeCodec -fuzztime=$$each ./internal/shard/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzParsePosition -fuzztime=$$each ./internal/serve/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzParseSExpr -fuzztime=$$each ./internal/tree/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzDecode -fuzztime=$$each ./internal/tree/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzParseTTT -fuzztime=$$each ./internal/games/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzConnect4 -fuzztime=$$each ./internal/games/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzImpartialMoves -fuzztime=$$each ./internal/games/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzTTEntryPacking -fuzztime=$$each ./internal/engine/ && \
	$(GO) test -race -run='^$$' -fuzz=FuzzPNEntry -fuzztime=$$each ./internal/engine/

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# bench/ is its own module (it imports gametree/internal/... through a
# replace directive), so `go build ./...` at the root does not compile it:
# an engine, serve or shard API change can break the benchmark unseen.
# This vets and tests it against the working tree, and is the benchmark's
# CI smoke: TestSmokeRunEmitsEveryMetric runs every workload briefly and
# checks every answer.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Serving-layer smoke (CI gate): boot a race-built gtserve on an
# ephemeral port, drive it with gtload, and assert exact search values,
# /metrics exposure, overload shedding (429/503) and a clean SIGTERM
# drain. Artifacts (logs, metrics scrape) in serve-smoke-artifacts/.
serve-smoke:
	./scripts/serve_smoke.sh

# Proof-number solver smoke (CI gate): boot a race-built gtserve, assert
# exact Sprague-Grundy verdicts through /v1/solve, a concurrent solve
# burst, a mid-solve client cancel (pns counters must go flat — workers
# released — and the partial tree parked), then run the gtprove bench
# suite, every verdict checked against its oracle. Artifacts in
# solve-smoke-artifacts/.
solve-smoke:
	./scripts/solve_smoke.sh

# Distributed serving smoke (CI gate): a race-built three-process ring
# (coordinator + two shard workers over TCP), exact values under
# fan-out, kill -9 of one worker mid-burst (values stay exact, orphaned
# tasks reissued), /metrics from all three processes, and — on hosts
# with more than one CPU — a 2-worker vs 1-worker qps scaling ratio.
# Artifacts in shard-smoke-artifacts/.
shard-smoke:
	./scripts/shard_smoke.sh

vet:
	$(GO) vet ./...

# Lint gate used by CI: gofmt must be a no-op and vet must be clean.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
