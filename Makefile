GO ?= go

.PHONY: build test vet fmt lint race check integration fuzz-smoke bench profile-small profile-bulk profile-control chaos-smoke naming-smoke storm-smoke wan-smoke crash-soak handoff-soak census

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean, printing the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt violations:"; echo "$$out"; exit 1; \
	fi

# lint enforces gofmt, then runs staticcheck when it is on PATH (CI
# installs it; locally run
# `go install honnef.co/go/tools/cmd/staticcheck@latest` once). staticcheck
# is kept out of `check` so an uninstalled linter never blocks the local
# gate.
lint: fmt
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos-smoke is the CI fault-injection gate: the chaos soak (16 streams,
# 2 migrations, RST storms, a 2s partition) in short mode under the race
# detector, uncached so it really runs every time — once over the default
# cleartext transports and once with the AEAD record layer on
# (CHAOS_SECURE=1), so every transport the recoveries dial runs the full
# handshake and sealed records too. Besides exactly-once delivery it
# asserts that no stream carried a frame past a lost one (data.seq_gaps 0).
chaos-smoke:
	$(GO) test ./internal/core -run TestChaosSoakExactlyOnce -race -short -count=1 -v
	CHAOS_SECURE=1 $(GO) test ./internal/core -run TestChaosSoakExactlyOnce -race -short -count=1 -v

# naming-smoke is the CI gate for the naming control plane: the
# kill-one-shard chaos test under the race detector (a 3x2 cluster with 2%
# control loss loses a shard leader mid-migration-wave) and the lone-node
# control-loss test (a 1x1 layout under the same loss: no duplicate or
# regressed epoch, every op inside its bound), then the lookup experiment
# at a reduced population (1000 agents, 1 s windows), which fails if the
# storm or the epoch piggyback did not run or the hit rate under the
# migration storm drops below 90%. It compares against no recorded run:
# lookup speed is the benchmark's business (BENCHMARK.json).
naming-smoke:
	$(GO) test ./internal/naming/cluster -run 'TestKillOneShardLeader|TestSingleNodeUnderControlLoss' -race -count=1 -v
	$(GO) run ./cmd/repro -quick naming

# storm-smoke is the CI connection-scaling gate: the goroutine-leak
# regression test under the race detector, then the live storm at a reduced
# population (10k conns, 1k-conn migration wave), which fails if a swept
# connection never resumes, the post-wave round trip breaks, or goroutine
# growth across the population exceeds the O(1) ceiling.
storm-smoke:
	$(GO) test ./internal/core -run TestGoroutineCountFlatAcrossConns -race -count=1
	$(GO) run ./cmd/repro -quick c10k

# wan-smoke is the CI WAN-robustness gate: the relay rendezvous tests and
# the NAT'd migration scenario under the race detector (two hosts that
# cannot dial each other sustain a connection through an untrusted relay,
# across a kill of the relayed transport and a migration, and an agent hops
# to a host reachable only through the relay), the RTT-adaptive keepalive
# regression test, then the netem scenario matrix in
# short mode (metro + intercontinental, 2 breaks) — any unrecovered
# connection failure, or a false keepalive timeout on a merely-slow path,
# fails the gate.
wan-smoke:
	$(GO) test ./internal/relay -race -count=1
	$(GO) test ./internal/transport -run 'TestRelayFallbackThroughNAT|TestKeepaliveAdaptsToWANRTT' -race -count=1 -v
	$(GO) test ./internal/core -run 'TestMigrationSustainedThroughRelayNAT|TestCarryThroughRelayNAT' -race -count=1 -v
	$(GO) run ./cmd/repro -quick wanmatrix

# crash-soak is the CI gate for exactly-once across a crash: the
# checkpoint-order tests under the race detector (a connection's journal
# records land in snapshot order, none after it left the journal), then the
# test the ordering bug used to fail about once in a hundred runs — both
# endpoints migrate concurrently, the host one landed on is rebuilt from its
# journal — repeated until a flake that came back could not hide.
crash-soak:
	$(GO) test ./internal/core -run '^TestCheckpoint' -race -count=20
	$(GO) test ./internal/core -run 'TestDoubleFailureConcurrentMigrationWithCrash$$' -count=300

# handoff-soak is the CI gate for the unanswered stream open and for the one
# recovery path: the round-trip census (what each operation costs in
# sequential one-way trips and control requests — a wait put back fails a
# named number), the break census (what one TCP break costs eight
# connections: a failure, a recovery and a RES each, one fresh transport), a
# break while a 64 KiB writer is credit-stalled behind a full reader (the
# send-log bound), a handoff lost with its transport, a refused handoff
# landing at every point of the opener's way to ESTABLISHED, a stream that
# dies before either end is established (inside the step, and between the
# install and the step), an open's stream and ACK landing in either order,
# its ACK lost once, its opener giving up before the stream lands or with
# every ACK lost, a cold open on the transport CONNECT names, a CONNECT not
# signed with the named transport's key, a recovery RES that meets a peer
# which has not noticed the break or is suspending, exactly-once delivery
# over segment boundaries and under concurrent writers (four goroutines
# writing 1 B to 70 KiB messages through suspends: every writer's messages
# arrive in order and exactly once), the refusal tests of both layers, the redial
# backoff of a recovery whose peer is unreachable, the one rule that frees
# the send log (a drain that gives up on either side loses no frame the
# peer never got; a gap is an error at both ends), and the agent-bundle
# streams (delivery, warm reuse, a refusal with nothing docked, the size
# bound), and the one transport writer (a peer whose kernel writes never
# complete parks no other peer's flush, nor a grant, pong or CloseWrite;
# its queue swap and buffer slab under data and control records of two
# streams in all four directions; a record whose clear header was changed
# fails authentication), the
# lifetime of a connection's passes (a pump pass never waits for transport
# queue room beside two bulk siblings; no pump or flush goroutine outlives
# its work by a second, nor a credit-stalled flush its controller's close;
# a line of their own: twenty bulk runs take about two minutes under the
# race detector, which on the main line would near go test's ten-minute
# timeout), and the requester half of the control protocol as
# the one table and interpreter it is (both tables checked cell by cell
# and against each other, every concurrent migration of Figs 4 and 5 — the
# two-connection one bounded at a quarter of the operation timeout, so the
# resume race costs a retry, not a timeout — a SUS granted in RESUME_WAIT, a
# CLS that waits out a resume's completion, and a parked resume that expires
# closed), and the endpoint's one wait for its handoff (a stale handoff,
# signed below the granted RES's nonce, is refused; an opener whose stream
# never lands gives up at the operation timeout),
# repeated under the race detector. Last, the control cycle the benchmark
# shields with 1 KiB bursts, with 64 KiB ones: 6 to 10 messages left unread
# on each connection across every migration, 10,000 cycles (200 a run).
handoff-soak:
	$(GO) test ./internal/core -run 'TestRoundTripCensus|TestBreakCensus|TestBreakWhileCreditStalled|TestRefusedHandoffRace|TestStreamDeathAtEstablishment|TestStreamDeathBetweenInstallAndStep|TestOpenStreamAndACKInEitherOrder|TestConnectACKLostOnce|TestOpenerGivesUp|TestColdOpenUsesTheNamedTransport|TestForgedConnectOpensNothing|TestStaleHandoffRefused|TestHandoff|TestCarry|TestResumeMeets|TestExactlyOnceOverSegmentBoundaries|TestConcurrentWritersKeepWireOrder|TestSlowPeerDoesNotStallOtherPeers|TestConcurrentMigration|TestRepeatedConcurrentMigrations|TestNonOverlappedConcurrentMigration|TestSuspendGrantedInResumeWait|TestCloseWaitsOutResumeCompletion|TestParkedResumeExpiresClosed|TestReplyTable|TestRequestTable|TestSuspenderGivesUpItsDrain|TestResponderGivesUpItsDrain|TestGapToEmptyLogUnrecoverable|TestAdmitRefusesSeqGap' -race -count=20
	$(GO) test ./internal/core -run 'TestBulkSiblingsNeverParkThePump|TestNoPassOutlivesItsWork' -race -count=20
	$(GO) test ./internal/transport -run 'TestAuthorizeRefusalResetsOpen|TestUnclaimedStreamReset|TestOpenStreamWaitsForNothing|TestRedialBackoffConfigHonored|TestNothingWaitsOnAStuckKernelSend|TestRecordsInterleave|TestSealedDataRecordHeaderIsAuthenticated' -race -count=20
	$(GO) test ./internal/core -run 'TestBurstsUnreadAcrossMigrations$$' -count=50

# census prints the numbers a simplicity PR quotes, so CHANGES.md can be
# checked against the CI log: non-test lines, the same count with bench/
# included (the set ROADMAP's line target is stated over), packages directly
# under internal/, the configuration census (fields of *Config/*Options
# structs, TestEveryKnobHasAMover), and napletd's flag count.
census:
	@echo "non-test lines: $$(find internal cmd examples naplet.go -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test lines with bench/: $$(find internal cmd examples naplet.go bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "internal/ packages: $$(ls -d internal/*/ | wc -l)"
	@$(GO) test . -run '^TestEveryKnobHasAMover$$' -count=1 -v | grep -o 'census: .*'
	@echo "napletd flags: $$(grep -cE 'flag\.(String|Int|Bool|Duration|Var)\(' cmd/napletd/main.go)"

# integration runs only the subprocess tests (two-process deployment and
# crash recovery), uncached.
integration:
	$(GO) test ./cmd/napletd -run Integration -count=1 -v

# fuzz-smoke gives every fuzz target a short budget — enough to replay the
# seed corpora and shake the parsers with a few mutations.
fuzz-smoke:
	for target in FuzzReadFrame FuzzDecodeControlMsg FuzzDecodeControlReply FuzzReadHandoffHeader FuzzReadTransportHello; do \
		$(GO) test ./internal/wire -run '^$$' -fuzz "^$$target$$" -fuzztime 10s || exit 1; \
	done
	$(GO) test ./internal/security -run '^$$' -fuzz '^FuzzOpenRecord$$' -fuzztime 10s
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzSealedReadLoop$$' -fuzztime 10s
	$(GO) test ./internal/dhkx -run '^$$' -fuzz '^FuzzSharedSecret$$' -fuzztime 10s
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzConnStateDecode$$' -fuzztime 10s

# bench runs the repository's one benchmark (BENCHMARK.json): four
# workloads, each in its own process; see bench/README.md.
bench:
	$(GO) run ./bench

# profile-small profiles the small-message steady state — the driver is the
# cleartext row of the tier-1 budget test TestSmallMessageSteadyState, 100 B
# messages through a connected pair on cleartext records — and prints the
# top of the CPU profile. Binary and profile stay under .bench_build/
# (ignored).
profile-small:
	mkdir -p .bench_build/profile-small
	$(GO) test ./internal/core -run '^TestSmallMessageSteadyState$$/^cleartext$$' -count=30 \
		-o .bench_build/profile-small/core.test -cpuprofile .bench_build/profile-small/cpu.out
	$(GO) tool pprof -top -nodecount=20 .bench_build/profile-small/core.test .bench_build/profile-small/cpu.out

# profile-bulk does the same for the bulk steady state: what it profiles is
# the sealed row of the tier-1 budget test TestBulkMessageSteadyState, 64 KiB
# messages through a connected pair on sealed records.
profile-bulk:
	mkdir -p .bench_build/profile-bulk
	$(GO) test ./internal/core -run '^TestBulkMessageSteadyState$$/^sealed$$' -count=30 \
		-o .bench_build/profile-bulk/core.test -cpuprofile .bench_build/profile-bulk/cpu.out
	$(GO) tool pprof -top -nodecount=20 .bench_build/profile-bulk/core.test .bench_build/profile-bulk/cpu.out

# profile-control does the same for the control cycle: the driver is the
# tier-1 budget test TestMigrationSteadyState, an agent with two connections
# and sixteen unread 1 KiB messages going round three hosts.
profile-control:
	mkdir -p .bench_build/profile-control
	$(GO) test ./internal/core -run '^TestMigrationSteadyState$$' -count=30 \
		-o .bench_build/profile-control/core.test -cpuprofile .bench_build/profile-control/cpu.out
	$(GO) tool pprof -top -nodecount=20 .bench_build/profile-control/core.test .bench_build/profile-control/cpu.out

# check is the gate CI runs: vet, build, and the full suite under the race
# detector.
check: vet build race
