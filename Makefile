# Convenience targets for the go-taskvine-context reproduction.

.PHONY: all check build test race flake fidelity lint lint-extra benchcheck fuzzsmoke paperlog cover reach allocs loc experiments examples clean

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
# shared plane that records and composes every trace (the per-shard
# scheduler and the two global streams, the submission plane and the ref
# catalog), the manager-vs-simulator differential replays, and the golden
# decision traces for the seed workloads — all under -race so view
# maintenance stays data-race-free too.
fidelity:
	go test -race ./internal/policy
	go test -race ./internal/shardplane
	go test -race -run Differential ./internal/manager
	go test -race -run Golden ./internal/experiments

# The repo's own analyzer suite (internal/lint): policy purity, map
# determinism, lock discipline, I/O deadlines, worker layering, and the
# fidelity-contract two (sim/manager mirror parity, goroutine lifecycle).
# Types and tests carry three contracts that once had analyzers: the
# trace vocabulary (the policy.Decision type), stats discipline (typed
# atomic counters) and pool hygiene (internal/proto's leak tests).
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
# So does the send queue: its one-slot wake channel is the same kind of
# lost-wakeup hazard, raced by eight producers against its consumer.
# So does the framed connection: every receiver in the process borrows
# a long frame's first piece from one chunk pool, raced by eight
# receivers that each check their own bytes.
# The manager's differentials then run ten times (no race detector: ~2 s
# a run): they wait out real backoff timers, which is where a
# timing-dependent requeue would show; the cross-shard peer cap rides
# along. So does taskvine, ten times under
# -race (~35 s): fault_test.go's chaos kills workers and stalls transfers
# under real sockets and checks quiescence after, which is where a requeue
# that depends on timing or a spec left backing off in the in-flight
# table would show. Last, every allocation pin twenty times without the
# race detector, under which the pool-exact ones skip: a pin that reads
# one allocation too many one run in twenty is measuring something else.
# MiniPy's shared builtins, the content ID's hashing, the package index's
# closure walk, a peer fetch over a reused data-plane link, the timed
# simulator's run and the event loop's step are among them.
flake:
	go test -count=20 -race ./internal/dataplane ./internal/worker ./internal/content ./internal/library ./internal/hashring ./internal/policy ./internal/shardplane ./internal/proto
	go test -count=10 -run 'Differential|PeerCap' ./internal/manager
	go test -count=10 -race ./taskvine
	go test -count=20 -run 'Alloc|Ledger|SharesBuiltins' ./internal/proto ./internal/dataplane ./internal/library ./internal/policy ./internal/hashring ./internal/worker ./internal/pickle ./internal/minipy ./internal/content ./internal/pkgindex ./internal/sim ./internal/event ./internal/manager ./taskvine

# bench/ is a module of its own (repro/bench, replace repro => ../), so
# the root go build/vet/test ./... never compile it, yet it imports the
# engine's packages: vet, test and lint it where it lives, then run the
# two invocation workloads for two seconds each. A run exits non-zero if
# any output is wrong or CheckQuiescence is not clean afterwards. The
# third run gives the runtime one core: the wire path coalesces through
# cooperative yields there, and must neither deadlock nor drop a frame.
# Then context_cold for two seconds: the only run here that takes a
# cluster through its whole life, spawn → environment and library deploy
# → first calls → quiescence → shutdown, over and over. Then
# context_reload for two seconds: the wrapped-call path, SubmitWrappedCall
# → wrapper task → load_pickle("args"), at L1 and L2. Then data_fanout
# for two seconds: the only workload that drives the ref catalog, a
# by-ref result that consumers resolve worker to worker.
# The last is the simulator at paper scale, on the seed whose TotalTime
# bench/testdata/sim_pinned.json pins to the last bit (seed 1): a policy
# change that moves one decision in 100000 fails it.
benchcheck:
	cd bench && go vet ./... && go test ./...
	go run ./cmd/vinelint ./bench/...
	bash bench/run.sh -workload invoke_burst -seed 1 -seconds 2
	bash bench/run.sh -workload invoke_paced -seed 1 -seconds 2
	GOMAXPROCS=1 bash bench/run.sh -workload invoke_burst -seed 1 -seconds 2
	bash bench/run.sh -workload context_cold -seed 1 -seconds 2
	bash bench/run.sh -workload context_reload -seed 1 -seconds 2
	bash bench/run.sh -workload data_fanout -seed 1 -seconds 2
	bash bench/run.sh -workload sim_replay -seed 1 -seconds 2

# The fuzz targets, five seconds each (go test -fuzz takes one target
# and one package per run): the one reader all three formats decode
# through (internal/bincode), the wire decoders and the frame receiver,
# then the unpickler and the environment manifest reader — bytes a
# worker takes from a peer or the shared filesystem. Hostile bytes
# must not panic a decoder, size an allocation, or decode to something
# that re-encodes differently. A failing input is written
# under the package's testdata/fuzz/ — commit it with the fix, it
# becomes a regression seed.
fuzzsmoke:
	go test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 5s ./internal/bincode
	go test -run '^$$' -fuzz '^FuzzDecodeTask$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecodeLibrary$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecodeInvocation$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzDecodeControl$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzRecvBulk$$' -fuzztime 5s ./internal/proto
	go test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 5s ./internal/pickle
	go test -run '^$$' -fuzz '^FuzzUnpackManifest$$' -fuzztime 5s ./internal/poncho
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/minipy
	go test -run '^$$' -fuzz '^FuzzRebuild$$' -fuzztime 5s ./internal/minipy

# Whole-tree statement coverage (every package's tests counted against
# every package, ~20 s), and the functions in which no test executes a
# single statement — the commands and the examples aside, and the
# functions scripts/reach.allow names with no reaching test ("-"): the
# methods with no statements to run (the parser's stmtNode/exprNode
# markers, shardplane.NoLock's Lock/Unlock), Worker.DataAddr, which
# only cmd/vineworker calls, and the lint Loader's Import, which
# types.Importer requires (go/types calls its ImportFrom instead).
# A function on this list is either missing a test or missing a caller:
# delete it, or give it one. Print-only; not part of `make check`.
cover:
	go test -coverpkg=./... -coverprofile=cover.out ./... > /dev/null
	@go tool cover -func=cover.out | awk -v allow=scripts/reach.allow '\
		BEGIN { while ((getline line < allow) > 0) { sub(/#.*/, "", line); if (split(line, f) >= 4 && f[4] == "-") skip[f[1] " " f[2]] = 1 } } \
		$$1 == "total:" { total = $$NF; next } \
		{ path = $$1; sub(/^repro\//, "", path); sub(/:[0-9]+:$$/, "", path) } \
		$$NF == "0.0%" && path !~ /^(cmd|examples)\// && !((path " " $$2) in skip) { print "never run:", $$1, $$2; n++ } \
		END { print n + 0, "functions never run; total statement coverage", total }'

# The other question: which functions does no user entry point run?
# Builds vinebench, vinerun, the five examples and bench/ with
# integration coverage, runs each briefly (every paper table, each
# example, both example workflows, every bench/ workload for a second
# untraced and a second traced), merges what they ran, and prints every
# function outside cmd/, examples/, bench/ and internal/lint that none of
# them entered, with its class from scripts/reach.allow: a fault path, a
# test oracle, paper-facing API, or a method with no statement. Fails
# when any is unclassified or an entry names no function (~2.5 min).
reach:
	bash scripts/reach.sh

# Where a warm call allocates: taskvine's two ledger tests, an L3 call
# and an L2 wrapped call, the data plane's reused peer fetch and the
# simulator's timed runs, each under -memprofilerate=1, with every
# allocation site of the profile divided per call (per invocation for
# the simulator). Print-only.
allocs:
	bash scripts/allocs.sh

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
