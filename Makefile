# Build, vet, test, and race-check the reproduction.
#
#   make check   — everything below in sequence (the tier-1 gate + races)
#   make race    — race-detector pass over the concurrency-bearing packages
#   make fuzz    — short native-fuzzing pass over the crash-safety targets
#   make benchsmoke — prescreen metric export + obs overhead gate
#   make pipebench-smoke — build and smoke-test the pipeline benchmark
#                  (bench/pipebench; `bash bench/pipebench/run.sh` times it)
#   make cover   — coverage floors for internal/core, obs, sched, trace, ddg,
#                  patterns and store
#   make serversmoke — end-to-end daemon check: cold run, warm store hit
#   make chaos   — fault-injection suite + chaos smoke against the binary
#   make loc     — non-test Go lines outside bench/, the size ROADMAP tracks

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet test race fuzz benchsmoke pipebench-smoke cover serversmoke chaos loc

check: build vet test race

# The pipeline benchmark is its own module, which the root ./... never
# compiles; building and vetting it here keeps an internal API change from
# breaking the benchmark unnoticed. Its module is one main package, so -o
# /dev/null keeps the build from leaving a binary in bench/pipebench.
build:
	$(GO) build ./...
	cd bench/pipebench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# vet also fails when any Go file is not gofmt-clean (gofmt -l lists it).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/trace/... ./internal/ddg/... ./internal/vm/... ./internal/pagetab/... ./internal/core/... ./internal/patterns/... ./internal/sched/... ./internal/obs/... ./internal/server/... ./internal/store/... ./internal/fault/...

# Each target runs for FUZZTIME; Go's fuzzer accepts one -fuzz pattern per
# package invocation, so the targets run in sequence.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMIRValidate$$' -fuzztime $(FUZZTIME) ./internal/mir
	$(GO) test -run '^$$' -fuzz '^FuzzVM$$' -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run '^$$' -fuzz '^FuzzFinalize$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzPrescreen$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzPrescreenDelta$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzReductionOracle$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyOracle$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzPagedCSR$$' -fuzztime $(FUZZTIME) ./internal/ddg
	$(GO) test -run '^$$' -fuzz '^FuzzSetOps$$' -fuzztime $(FUZZTIME) ./internal/ddg
	$(GO) test -run '^$$' -fuzz '^FuzzSubViewDiff$$' -fuzztime $(FUZZTIME) ./internal/ddg
	$(GO) test -run '^$$' -fuzz '^FuzzIterIndex$$' -fuzztime $(FUZZTIME) ./internal/ddg
	$(GO) test -run '^$$' -fuzz '^FuzzGraphKernels$$' -fuzztime $(FUZZTIME) ./internal/ddg

# The first command checks that the prescreen skip-rate counter is
# exported under its canonical name (internal/obs/names.go). The second
# runs the disabled-observability overhead gate: the find fixpoint with the
# no-op recorder must stay within 2% of running with no recorder at all
# (the zero-cost-when-disabled contract, DESIGN.md §12).
benchsmoke:
	$(GO) test -run '^TestPrescreenSkipRateExported$$' -count=1 .
	OBS_OVERHEAD=1 $(GO) test -run '^TestNopRecorderOverhead$$' .

# Build and drive the real daemon binary: cold run computes and stores,
# the identical resubmission must be a store hit with zero solver runs.
serversmoke:
	sh scripts/serversmoke.sh

# The chaos harness: the store (memory fallback, crash-safe disk) and
# fault-injection unit suites under the race detector, the scripted-plan
# chaos tests over the serving stack, then the smoke script driving the
# real binary through a crash-recovery restart and a scripted store
# outage.
chaos:
	$(GO) test -race -count=1 ./internal/fault/ ./internal/store/
	$(GO) test -race -count=1 -run Chaos ./internal/server/
	sh scripts/chaossmoke.sh

# The pipeline benchmark is its own module (bench/pipebench/go.mod), so
# the root ./... patterns never compile it; its test suite builds the
# harness and smoke-runs every workload at a tiny size.
pipebench-smoke:
	cd bench/pipebench && $(GO) test ./...

# Coverage floors. The thresholds sit a few points under the levels the
# suite reaches at the time of writing (core 95%, obs 92%, sched 94%,
# trace 93%, ddg 92%, patterns 79%, store 78%), so real regressions fail
# while test-order jitter does not.
cover:
	@mkdir -p .cover
	$(GO) test -coverprofile=.cover/core.out ./internal/core/
	$(GO) test -coverprofile=.cover/obs.out ./internal/obs/
	$(GO) test -coverprofile=.cover/sched.out ./internal/sched/
	$(GO) test -coverprofile=.cover/trace.out ./internal/trace/
	$(GO) test -coverprofile=.cover/ddg.out ./internal/ddg/
	$(GO) test -coverprofile=.cover/patterns.out ./internal/patterns/
	$(GO) test -coverprofile=.cover/store.out ./internal/store/
	@for spec in core:90 obs:88 sched:90 trace:88 ddg:90 patterns:75 store:75; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) tool cover -func=.cover/$$pkg.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		echo "internal/$$pkg coverage: $$pct% (floor $$floor%)"; \
		if [ "$$(echo "$$pct $$floor" | awk '{ print ($$1 >= $$2) }')" != 1 ]; then \
			echo "coverage regression in internal/$$pkg: $$pct% < $$floor%"; exit 1; \
		fi; \
	done

# The program's size as ROADMAP tracks it: lines of non-test Go, excluding
# the benchmark module under bench/.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l
