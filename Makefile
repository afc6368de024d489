# Development targets for the ABCCC reproduction.
#
#   make build   compile everything
#   make test    full test suite (tier-1 gate: go build ./... && go test ./...)
#   make vet     static analysis
#   make race    race-check the concurrent packages (parallel metrics,
#                heap allocator equivalence, experiment worker pool, and the
#                goroutine-per-device emulator); slow on small machines
#   make bench   micro + experiment benchmarks with allocation counts
#   make bench-smoke  one fast suite pass diffed against the recorded
#                BENCH_pr1.json baseline; fails on a large regression
#   make fuzz-smoke  fuzz arbitrary fault schedules against the packet and
#                multipath-transport conservation invariants for a few
#                seconds each (FuzzFaultPlanConservation drives the
#                one-shard packet engine, packetsim.Run; FuzzShardConservation
#                the multi-shard one), and the batched event queue against
#                the 4-ary heap (FuzzBatchedMatchesHeap: identical pops)
#   make bench-scale  quick sharded-engine scaling sweep (1k servers); the
#                full 1k/10k/100k sweep is `cmd/benchsuite -scale`, recorded
#                as BENCH_pr6.json
#   make obsreport-smoke  render the committed F26 run record through
#                cmd/obsreport (terminal, HTML, diff) and assert malformed
#                input exits nonzero
#   make emu-smoke  pin the actor engine's accounting equivalence against the
#                goroutine oracle on small configs, then check 1k-server
#                serving throughput against the committed BENCH_emu_smoke.json
#                baseline (generous threshold; CI machines are noisy)
#   make svc-smoke  validate and statically analyze the committed 3-tier
#                service graph through cmd/simulate, run it under a switch
#                outage, and re-check the smoke-scale F30 retry-storm grid
#                for byte determinism
#   make surv-smoke  run seeded lifetime trials through cmd/simulate (wear-out
#                and churn), render the committed surv run record through
#                cmd/obsreport, and re-check the smoke-scale F31 survivability
#                figure for byte determinism across GOMAXPROCS
#   make check   everything a PR must pass locally

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet race bench bench-smoke bench-scale fuzz-smoke obsreport-smoke emu-smoke svc-smoke surv-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The experiments package replays whole figures under the race detector;
# on a small CI machine that can blow go test's default 10m per-package
# timeout, so the budget is explicit.
race:
	$(GO) test -race -timeout 30m ./internal/experiments ./internal/graph ./internal/flowsim ./internal/emu ./internal/obs ./internal/packetsim ./internal/eventq ./internal/failure ./internal/svc ./internal/surv ./internal/bcube ./internal/topotest

bench:
	$(GO) test -bench=. -benchmem -run XXX .
	$(GO) test -bench=MaxMin -benchmem -run XXX ./internal/flowsim
	$(GO) test -bench=. -benchmem -run XXX ./internal/obs
	$(GO) test -bench=BenchmarkRun -benchmem -run XXX ./internal/packetsim ./internal/emu
	$(GO) test -bench=. -benchmem -run XXX ./internal/eventq

# The 10x threshold only catches order-of-magnitude blowups: CI machines are
# shared and noisy, so a tight gate would flake. Use `cmd/benchsuite
# -compare old.json new.json` locally for real before/after numbers.
bench-smoke:
	$(GO) run ./cmd/benchsuite -compare BENCH_pr1.json -threshold 10

bench-scale:
	$(GO) run ./cmd/benchsuite -scale -sizes 1k -shards 1,2,4,8

# go test accepts one -fuzz target at a time, so each invariant gets its own
# invocation.
fuzz-smoke:
	$(GO) test ./internal/packetsim -run XXX -fuzz FuzzFaultPlanConservation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packetsim -run XXX -fuzz FuzzMultipathConservation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packetsim -run XXX -fuzz FuzzShardConservation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/svc -run XXX -fuzz FuzzSvcConservation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eventq -run XXX -fuzz FuzzBatchedMatchesHeap -fuzztime $(FUZZTIME)

# Equivalence first (the engines must agree message-for-message on
# overflow-free configs), then throughput: a fresh 1k sweep must not lose
# more than 75% of the committed baseline's msgs/sec — loose enough for
# shared CI machines, tight enough to catch an engine falling off a cliff.
emu-smoke:
	$(GO) test -run 'TestEngineMatchesReference|TestEngineShardCountInvariance' ./internal/emu
	$(GO) run ./cmd/benchsuite -scale -engine emu -sizes 1k -baseline BENCH_emu_smoke.json -threshold 0.75 > /dev/null

# Renders every obsreport mode against the committed fixture, then checks
# the failure path: malformed JSONL must exit nonzero.
obsreport-smoke:
	$(GO) run ./cmd/obsreport cmd/obsreport/testdata/f26.jsonl.gz
	$(GO) run ./cmd/obsreport cmd/obsreport/testdata/svc.jsonl.gz
	$(GO) run ./cmd/obsreport -html /tmp/obsreport-smoke.html cmd/obsreport/testdata/f26.jsonl.gz
	$(GO) run ./cmd/obsreport -diff cmd/obsreport/testdata/f26.jsonl.gz cmd/obsreport/testdata/mini.jsonl
	printf '{not json\n' > /tmp/obsreport-smoke-bad.jsonl
	! $(GO) run ./cmd/obsreport /tmp/obsreport-smoke-bad.jsonl 2>/dev/null

# The committed 3-tier graph must validate and analyze through the CLI, run
# under a one-switch outage with a fault timeline, and the smoke-scale F30
# grid must reproduce byte for byte.
svc-smoke:
	$(GO) run ./cmd/simulate -topo abccc -sim svc -graph internal/svc/testdata/3tier.json -policy none -requests 1
	$(GO) run ./cmd/simulate -topo abccc -sim svc -graph 3tier -policy throttle -rate 4000 -deadline 60ms -requests 80 \
		-faults switches -mtbf 5ms -mttr 20ms
	$(GO) test ./internal/experiments -run TestRetryStormSmokeDeterministic -count=1

# Seeded lifetime trials through the CLI (wear-out MTTF and repairable
# churn), the committed surv run record through obsreport, and the
# smoke-scale F31 figure re-checked for byte determinism.
surv-smoke:
	$(GO) run ./cmd/simulate -topo abccc -sim surv -trials 8 -horizon 30y
	$(GO) run ./cmd/simulate -topo bcube -n 4 -k 1 -sim surv -churn \
		-classes "switches=2d:4h,links=5d:2h" -horizon 30d -trials 4
	$(GO) run ./cmd/obsreport cmd/obsreport/testdata/surv.jsonl.gz
	$(GO) test ./internal/experiments -run TestSurvSmokeDeterministic -count=1

check: build vet test race
