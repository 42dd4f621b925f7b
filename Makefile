GO ?= go

.PHONY: build test vet fmt lint race check integration fuzz-smoke bench profile-small profile-control chaos-smoke naming-smoke storm-smoke wan-smoke crash-soak handoff-soak census

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
# (CHAOS_SECURE=1), so fault injection shakes the encrypted resume path too.
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
# cannot dial each other sustain a migrated connection through an
# untrusted relay), the RTT-adaptive keepalive/backoff regression tests,
# then the netem scenario matrix in short mode (metro + intercontinental,
# 2 breaks) — any lost resume, false ErrTransportLost, or false keepalive
# timeout on a merely-slow path fails the gate.
wan-smoke:
	$(GO) test ./internal/relay -race -count=1
	$(GO) test ./internal/transport -run 'TestRelayFallbackThroughNAT|TestRedialBackoffConfigHonored|TestKeepaliveAdaptsToWANRTT' -race -count=1 -v
	$(GO) test ./internal/core -run TestMigrationSustainedThroughRelayNAT -race -count=1 -v
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

# handoff-soak is the CI gate for the unanswered stream open: the round-trip
# census (what each operation costs in sequential one-way trips and control
# requests — a wait put back fails a named number), a refused handoff landing
# at every point of the opener's way to ESTABLISHED, a stream that dies before
# either end is established, and the refusal tests of both layers, repeated
# under the race detector.
handoff-soak:
	$(GO) test ./internal/core -run 'TestRoundTripCensus|TestRefusedHandoffRace|TestStreamDeathBeforeEstablished|TestOpenRefusedHandoffLeavesNoEndpoint|TestHandoff' -race -count=20
	$(GO) test ./internal/transport -run 'TestAuthorizeRefusalResetsOpen|TestUnclaimedStreamReset|TestOpenStreamWaitsForNothing' -race -count=20

# census prints the four numbers a simplicity PR quotes, so CHANGES.md can
# be checked against the CI log: non-test lines, packages directly under
# internal/, the configuration census (fields of *Config/*Options structs,
# TestEveryKnobHasAMover), and napletd's flag count.
census:
	@echo "non-test lines: $$(find internal cmd examples naplet.go -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
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
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzConnStateDecode$$' -fuzztime 10s

# bench runs the repository's one benchmark (BENCHMARK.json): four
# workloads, each in its own process; see bench/README.md.
bench:
	$(GO) run ./bench

# profile-small profiles the small-message steady state — the driver is the
# tier-1 budget test TestSmallMessageSteadyState, 100 B messages through a
# connected pair on cleartext records — and prints the top of the CPU
# profile. Binary and profile stay under .bench_build/ (ignored).
profile-small:
	mkdir -p .bench_build/profile-small
	$(GO) test ./internal/core -run '^TestSmallMessageSteadyState$$' -count=30 \
		-o .bench_build/profile-small/core.test -cpuprofile .bench_build/profile-small/cpu.out
	$(GO) tool pprof -top -nodecount=20 .bench_build/profile-small/core.test .bench_build/profile-small/cpu.out

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
