#!/usr/bin/env bash
# reach: which functions does no user entry point run?
#
# `make cover` asks which functions no test runs; a test is a caller
# too. This asks the other question. It builds the entry points with
# integration coverage (go build -cover -coverpkg=repro/...), runs each
# briefly, merges what they ran, and prints every function outside
# cmd/, examples/, bench/ and internal/lint in which none of them ran a
# statement, with its class from scripts/reach.allow:
#
#   - vinebench -exp all (every paper table and figure);
#   - the five examples;
#   - vinerun on both examples/workflows;
#   - every bench/ workload for one second untraced and one traced.
#
# It ends with the number of unclassified functions and exits non-zero
# when that number, or the number of allowlist entries naming no
# function in the tree, is not zero (entries for internal/lint, which
# no entry point links, are make cover's alone). Build output and coverage data go
# to a temporary directory that is removed on exit; bench/'s traced runs
# write their spans under bench/out/ as bench/run.sh does.
#
#   bash scripts/reach.sh            (or: make reach)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
allow="$root/scripts/reach.allow"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cover=(-cover -coverpkg=repro/...)
go build "${cover[@]}" -o "$work/bin/vinebench" ./cmd/vinebench
go build "${cover[@]}" -o "$work/bin/vinerun" ./cmd/vinerun
examples=(quickstart distribution autohoist lnni examol)
for ex in "${examples[@]}"; do
	go build "${cover[@]}" -o "$work/bin/$ex" "./examples/$ex"
done
(cd bench && go build "${cover[@]}" -o "$work/bin/bench" .)

# run NAME CMD...: one entry point, its coverage in its own directory,
# its output kept only if it fails.
dirs=()
run() {
	local name=$1
	shift
	mkdir -p "$work/cov/$name"
	dirs+=("$work/cov/$name")
	if ! GOCOVERDIR="$work/cov/$name" "$@" > "$work/$name.log" 2>&1; then
		echo "reach: $name failed:" >&2
		tail -20 "$work/$name.log" >&2
		exit 1
	fi
}

run vinebench "$work/bin/vinebench" -exp all
for ex in "${examples[@]}"; do
	run "$ex" "$work/bin/$ex"
done
for wf in examples/workflows/*.py; do
	run "vinerun-$(basename "$wf" .py)" "$work/bin/vinerun" "$wf"
done
workloads=$("$work/bin/bench" -h 2>&1 | sed -n 's/.*workload to run: //p' | tr -d ',')
if [ -z "$workloads" ]; then
	echo "reach: bench -h names no workload" >&2
	exit 1
fi
for wl in $workloads; do
	run "bench-$wl" "$work/bin/bench" -workload "$wl" -seed 1 -seconds 1 -trace 0
	run "bench-$wl-traced" "$work/bin/bench" -workload "$wl" -seed 1 -seconds 1 -trace 1
done

# bench/'s own packages live in another module, which go tool cover
# cannot resolve from here; they are not counted anyway.
go tool covdata textfmt -i="$(IFS=,; echo "${dirs[*]}")" -o "$work/all.out"
grep -v '^repro/bench/' "$work/all.out" > "$work/reach.out"

# The allowlist: one entry per line, `path function class reaching-test`
# (the test may be several words); # starts a comment. Every function
# is listed as go tool cover names it: a method by its name alone, so
# one entry covers every method of that name in the file.
go tool cover -func="$work/reach.out" | awk -v allow="$allow" '
	BEGIN {
		while ((getline line < allow) > 0) {
			sub(/#.*/, "", line)
			if (split(line, f, /[ \t]+/) < 4) continue
			key = f[1] " " f[2]
			class[key] = f[3]
			test = line
			sub(/^[ \t]*[^ \t]+[ \t]+[^ \t]+[ \t]+[^ \t]+[ \t]+/, "", test)
			reach[key] = test
		}
	}
	$1 == "total:" { total = $NF; next }
	{
		path = $1
		sub(/^repro\//, "", path)
		sub(/:[0-9]+:$/, "", path)
		key = path " " $2
		exists[key] = 1
		if ($NF != "0.0%" || path ~ /^(cmd|examples|bench|internal\/lint)\//) next
		if (key in class) {
			printf "%-6s  %s %s: %s\n", class[key], path, $2, reach[key]
			n[class[key]]++
		} else {
			print "UNCLASSIFIED", path, $2
			unclassified++
		}
	}
	END {
		for (key in class) if (!(key in exists) && key !~ /^(cmd|examples|bench|internal\/lint)\//) { print "STALE allowlist entry, no such function:", key; stale++ }
		for (c in n) printf "%d %s\n", n[c], c | "sort -k2"
		close("sort -k2")
		printf "entry-point statement coverage %s; %d functions unclassified, %d stale allowlist entries\n", total, unclassified, stale
		exit (unclassified + stale > 0)
	}'
