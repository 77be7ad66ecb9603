# Convenience targets for the go-taskvine-context reproduction.

.PHONY: all check build test race flake fidelity lint lint-extra benchcheck fuzzsmoke paperlog cover loc experiments examples clean

all: check

# The pre-merge gate: vet + build, the custom analyzer suite, the plain
# suite, the policy-core fidelity gate, the full suite under the race
# detector (the chaos tests exercise the manager's failure paths
# concurrently, so -race is load-bearing here — the live multi-tenant
# plane and the proxy-object spill tier get their lock discipline
# checked there, by taskvine's DispatchTenantsSmoke and RefSpillSmoke),
# the data-path and decision packages twenty times over under -race, the
# manager's differentials ten times and taskvine ten times under -race,
# the repository benchmark's own module linted, built, tested and run
# briefly, a few seconds of each fuzzer, and every paper table and
# figure re-run and compared with the checked-in log.
check: build lint test fidelity race flake benchcheck fuzzsmoke paperlog

# The fidelity gate: the pure policy core's decision-order pins, the
# manager-vs-simulator differential replays, and the golden decision
# traces for the seed workloads — all under -race so view maintenance
# stays data-race-free too.
fidelity:
	go test -race ./internal/policy
	go test -race -run Differential ./internal/manager
	go test -race -run Golden ./internal/experiments

# The repo's own analyzer suite (internal/lint): policy purity, map
# determinism, lock discipline, I/O deadlines, worker layering, pool
# hygiene, and the fidelity-contract four (trace-schema stability,
# sim/manager mirror parity, stats discipline, goroutine lifecycle).
# Zero unsuppressed findings is the bar; suppressions need justified
# //vinelint: pragmas. lint-extra layers on pinned third-party
# checkers when the environment can run them (see the script).
lint:
	go run ./cmd/vinelint ./...
	./scripts/lint-extra.sh

lint-extra:
	RUN_LINT_EXTRA=force ./scripts/lint-extra.sh

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# The zero-flake bar for the packages whose tests race real goroutines
# over one cache (randomized concurrent plane and cache operations,
# worker staging) or over one library (slot goroutines, concurrent fork
# slots): a test that passes nineteen times in twenty is a bug, so they
# run twenty times, under the race detector. The ring and the policy
# core ride along: their property tests are seeded random scripts held
# to reference oracles, and must not depend on map order or timing. So
# does the shared shard scheduler: its wake latch is raced by real
# goroutines, and its passes are held to plan-one/execute-one oracles.
# The manager's differentials then run ten times (no race detector: ~2 s
# a run): they wait out real backoff timers, which is where a
# timing-dependent requeue would show. So does taskvine, ten times under
# -race (~35 s): fault_test.go's chaos kills workers and stalls transfers
# under real sockets and checks quiescence after, which is where a requeue
# that depends on timing or a spec left backing off in the in-flight
# table would show.
flake:
	go test -count=20 -race ./internal/dataplane ./internal/worker ./internal/content ./internal/library ./internal/hashring ./internal/policy ./internal/shardplane
	go test -count=10 -run Differential ./internal/manager
	go test -count=10 -race ./taskvine

# bench/ is a module of its own (repro/bench, replace repro => ../), so
# the root go build/vet/test ./... never compile it, yet it imports the
# engine's packages: vet, test and lint it where it lives, then run the
# two invocation workloads for two seconds each. A run exits non-zero if
# any output is wrong or CheckQuiescence is not clean afterwards. The
# third run gives the runtime one core: the wire path coalesces through
# cooperative yields there, and must neither deadlock nor drop a frame.
# The last is the simulator at paper scale, on the seed whose TotalTime
# bench/testdata/sim_pinned.json pins to the last bit (seed 1): a policy
# change that moves one decision in 100000 fails it.
benchcheck:
	cd bench && go vet ./... && go test ./...
	go run ./cmd/vinelint ./bench/...
	bash bench/run.sh -workload invoke_burst -seed 1 -seconds 2
	bash bench/run.sh -workload invoke_paced -seed 1 -seconds 2
	GOMAXPROCS=1 bash bench/run.sh -workload invoke_burst -seed 1 -seconds 2
	bash bench/run.sh -workload sim_replay -seed 1 -seconds 2

# The fuzz targets, five seconds each (go test -fuzz takes one target
# and one package per run): the wire decoders and the frame receiver,
# then the unpickler — bytes a worker takes from a peer. Hostile bytes
# must not panic a decoder, size an allocation, or decode to something
# that re-encodes differently. A failing input is written
# under the package's testdata/fuzz/ — commit it with the fix, it
# becomes a regression seed.
fuzzsmoke:
	go test -run '^$$' -fuzz '^FuzzDecodeTask$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecodeLibrary$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecodeInvocation$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzRecvBulk$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 5s ./internal/pickle

# Whole-tree statement coverage (every package's tests counted against
# every package, ~20 s), and the functions in which no test executes a
# single statement — the commands, the examples, and the methods with no
# statements to execute (the parser's stmtNode/exprNode markers,
# shardplane.NoLock's Lock/Unlock) aside.
# A function on this list is either missing a test or missing a caller:
# delete it, or give it one. Print-only; not part of `make check`.
cover:
	go test -coverpkg=./... -coverprofile=cover.out ./... > /dev/null
	@go tool cover -func=cover.out | awk '\
		$$1 == "total:" { total = $$NF; next } \
		$$NF == "0.0%" && $$1 !~ /^repro\/(cmd|examples)\// && $$2 !~ /^(stmtNode|exprNode)$$/ && !($$1 ~ /shardplane\/sched\.go/ && $$2 ~ /^(Lock|Unlock)$$/) { print "never run:", $$1, $$2; n++ } \
		END { print n + 0, "functions never run; total statement coverage", total }'

# Go lines by directory, non-test and test, and for the whole tree
# outside bench/ — by wc -l, comments and blanks included: the numbers a
# simplicity PR reports before and after. Print-only.
loc:
	@find . -name '*.go' -not -path './bench/*' -print0 | xargs -0 wc -l | awk '\
		$$2 == "total" { next } \
		{ dir = $$2; sub(/\/[^\/]*$$/, "", dir); if ($$2 ~ /_test\.go$$/) { t[dir] += $$1; tt += $$1 } else { n[dir] += $$1; nt += $$1 }; seen[dir] = 1 } \
		END { printf "%8s %8s  %s\n", "non-test", "test", "directory"; \
			for (d in seen) printf "%8d %8d  %s\n", n[d], t[d], d | "sort -k3"; close("sort -k3"); \
			printf "%8d %8d  %s\n", nt, tt, "total outside bench/" }'

# Every table and figure at paper scale (~4.5 s).
experiments:
	go run ./cmd/vinebench -exp all

# The reproduction contract as a gate: every table and figure at paper
# scale must print what docs/vinebench-paper-scale.txt records, the
# wall-clock lines aside (each experiment's "finished in", the closing
# "completed in", and Table 2's local-invocation row, which times real
# MiniPy calls). After a deliberate change to a result, regenerate the
# log with `go run ./cmd/vinebench -exp all > docs/vinebench-paper-scale.txt`
# and bring EXPERIMENTS.md in line.
paperlog:
	go run ./cmd/vinebench -exp all | diff -I 'finished in' -I 'completed in' -I 'local-invocation per-invocation' docs/vinebench-paper-scale.txt -

examples:
	go run ./examples/quickstart
	go run ./examples/distribution
	go run ./examples/autohoist
	go run ./examples/lnni
	go run ./examples/examol

clean:
	go clean ./...
