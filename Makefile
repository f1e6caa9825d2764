# CRONets reproduction — build/test gates.
#
#   make build        compile everything
#   make test         tier-1 gate: go build ./... && go test ./...
#   make test-short   fast inner-loop gate: go test -short ./... (skips
#                     the slow netem e2es in the repo root — control
#                     plane, warm pool, chains, tracing, failover, and
#                     objective routing — plus the experiment suite)
#   make race         race-detector pass over the full tree
#   make vet          static checks
#   make lint         go vet plus staticcheck/golangci-lint when installed
#   make fmt          gofmt diff gate (fails if any file needs formatting)
#   make check        all of the above
#   make bench        data-plane benchmarks (pipe, relay, multipath, gateway
#                     dial, chain dial, probe round); BENCHTIME=1x runs
#                     each once, as CI does
#   make trace-smoke  flow-tracing gate: the tracing e2e under -race plus
#                     the unsampled-path zero-allocation check
#   make bench-smoke  chain gate: the chain failover e2e, the pipelined
#                     chain handshake tests and the relay's pipelined
#                     hang-up regression under -race, plus the
#                     zero-allocation checks on the established-chain
#                     splice and on route-table reads (Best + Ranked)
#   make perfbench-check  vet and self-test the perfbench module, which
#                     ./... never reaches (it is a module of its own)
#   make fuzz-smoke   run every Fuzz* target in the tree for 3s each: the
#                     CONNECT request and reply, trace contexts, tunnel
#                     frames and packets, and the multipath frame header
#   make cross        vet the tree for darwin and build it for windows, so
#                     the non-Linux stubs (pipe's copy-loop-only splice
#                     path, connpool's liveness probe) keep compiling

GO ?= go
BENCHTIME ?= 1s

.PHONY: build test test-short race vet lint fmt check bench trace-smoke bench-smoke perfbench-check fuzz-smoke cross

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Lint gate: go vet always runs; staticcheck and golangci-lint run when
# present on PATH (offline environments without them still pass).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@if command -v golangci-lint >/dev/null 2>&1; then \
		echo "golangci-lint run"; golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipping"; \
	fi

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

check: fmt vet test race perfbench-check

bench:
	$(GO) test -run=NONE -bench='PipeBidirectional|RelayThroughput|MultipathReceive|GatewayDial|ChainDial|ProbeRound' -benchtime=$(BENCHTIME) -benchmem ./...

# The alloc gate runs without -race (the race runtime adds allocations of
# its own); the e2e runs with it.
trace-smoke:
	$(GO) test -race -run TestFlowTraceEndToEnd .
	$(GO) test -run TestUnsampledPathAllocs ./internal/flowtrace/

# Fails if the pipelined chain handshake breaks (every hop's line in one
# write, replies read in hop order, a failure named at its own hop), if a
# relay misses a client that hangs up with bytes pipelined behind its
# CONNECT line, if chain dial allocates on the established-flow splice
# path (once the handshake completes, a chained flow must be the same
# zero-alloc forwarding as a single hop), or if reading pathmon's published
# route table allocates (every gateway dial and pool fill reads it).
bench-smoke:
	$(GO) test -race -run TestChainFailoverEndToEnd .
	$(GO) test -race -run 'TestChainPipelinesPreambles|TestChainThirdHopRefused|TestChainHopDiesAfterPriorOK' ./internal/chain/
	$(GO) test -race -run TestDialRetryAbortsWhenClientHangsUp ./internal/relay/
	$(GO) test -run TestChainSpliceAllocs ./internal/chain/
	$(GO) test -run TestRankedReadAllocs ./internal/pathmon/

# perfbench/ is a separate Go module (it replaces cronets with ../), so
# go build ./..., vet and test above never compile it: an API change
# could break the benchmark with every other gate green.
perfbench-check:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) test ./...

# One go test per target (-fuzz accepts only one per run). The targets
# come from go test -list, so a new Fuzz* function runs with no edit here:
# the listing prints each package's target names, then its "ok <pkg>" line.
fuzz-smoke:
	@set -e; list=$$($(GO) test -run=NONE -list='^Fuzz' ./...); \
	echo "$$list" | grep -q '^Fuzz' || { echo "fuzz-smoke: no Fuzz targets found"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { names = names " " $$1 } \
		/^ok/ { if (names != "") print $$2 names; names = "" }' | \
	while read pkg names; do \
		for t in $$names; do \
			echo "fuzz $$t ($$pkg)"; \
			$(GO) test -run=NONE -fuzz="^$$t\$$" -fuzztime=3s $$pkg || exit 1; \
		done; \
	done

# CI runs every target above on Linux, so nothing else compiles the
# non-Linux splice stub (darwin) or connpool's non-Unix liveness probe
# (windows).
cross:
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) build ./...
