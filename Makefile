GO ?= go

.PHONY: all build vet lint lint-audit lint-sarif test race bench check chaos chaos-serve chaos-feedback chaos-cluster test-patterns serve-smoke cluster-smoke modelcheck fuzz tools clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Custom go/analysis suite (determinism, ctxplumb, gohygiene, lockhold,
# metrichygiene, statuscontract, checksumfield): the invariants the
# reproduction and the serving stack depend on, enforced mechanically.
# See DESIGN.md "Enforced invariants".
lint:
	$(GO) run ./cmd/collsellint ./...

# Escape-hatch audit: list every //collsel:<verb> directive in the tree
# with its justification, and fail if any is stale — i.e. suppresses
# nothing, because the code it once excused moved or was fixed. Stale
# hatches are how suppressions outlive their reasons.
lint-audit:
	$(GO) run ./cmd/collsellint -audit ./...

# Machine-readable findings (SARIF 2.1.0) for code-scanning UIs; CI
# uploads the file as a workflow artifact.
lint-sarif:
	$(GO) run ./cmd/collsellint -sarif collsellint.sarif ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerate every table/figure benchmark once (laptop scale).
bench:
	$(GO) test -bench=. -benchtime 1x .

# Tier-1 verification: what every change must keep green.
check: build vet lint test race

# Deterministic chaos harness for the serving layer and the feedback loop:
# hanging and failing refinements, shed bursts, the worker and in-flight
# bounds, the negative cache, reload storms, drain, observe-storm backpressure,
# recompile-vs-reload swap races and WAL crash recovery — all under the
# race detector, with a goroutine-leak check per scenario. `build` is the
# shared prerequisite with serve-smoke, so CI jobs never repeat ad-hoc
# build steps. The three steps run under `make -k`: a failing step does not
# stop the others, make names every step that failed, and chaos exits
# non-zero if any did.
chaos: build
	$(MAKE) -k chaos-serve chaos-feedback chaos-cluster

chaos-serve:
	$(GO) test -race -run 'TestChaos|TestNegativeColdCaching|TestDrainStateMachine' -count=1 -v ./internal/serve

chaos-feedback:
	$(GO) test -race -run 'TestPipeline|TestWAL|TestOfferBackpressureAndClose' -count=1 -v ./internal/feedback

chaos-cluster:
	$(GO) test -race -count=1 -v ./internal/cluster

# Fail when a -run/-bench/-fuzz pattern in this Makefile or the CI
# workflow names no test: a renamed test must not leave its pattern
# silently selecting nothing.
test-patterns:
	./scripts/check_test_patterns.sh

# End-to-end serving smoke test against the tools built once by `tools`
# (the script builds into a temp dir when run standalone).
serve-smoke: tools
	BIN_DIR=$(CURDIR)/bin ./scripts/serve_smoke.sh

# Three-replica failover smoke test: boot a peer ring, SIGKILL one
# replica, drive mixed load, and assert zero client-visible errors, at
# least one forward the survivors answered locally because the owner was
# gone, and the corpse demoted to dead in /healthz.
cluster-smoke: tools
	BIN_DIR=$(CURDIR)/bin ./scripts/cluster_smoke.sh

# Analytical-model validation: Spearman rank correlation between the
# closed-form cost model and the simulator, per collective, on the
# reference machine. Fails below the 0.7 floor — the gate for trusting
# model answers and -prune-topk grid builds on that platform.
modelcheck:
	$(GO) run ./cmd/modelcheck -machine SimCluster -procs 8

# Randomized end-to-end correctness and robustness: the collective payload
# fuzzer validates fuzzed runs against a direct computation; the serve
# fuzzers throw arbitrary bytes at every external JSON surface (/select,
# /observe, /peer/cell) and require a documented status, never a panic.
# One -fuzz pattern per `go test` invocation is a Go toolchain rule.
FUZZTIME ?= 15s
fuzz:
	$(GO) test ./internal/microbench -run '^$$' -fuzz FuzzCollectiveCorrectness -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzSelectRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzObserveBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzPeerCell$$' -fuzztime $(FUZZTIME)

tools:
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin
