#!/usr/bin/env bash
# allocs: where does one call allocate?
#
# taskvine's two ledger tests pin what a warm call costs in allocations:
# TestInvocationLedger an L3 call to an installed library,
# TestWrappedCallLedger an L2 wrapped call (a stateless task), the
# data plane's TestReusedPeerFetchAllocs a peer fetch over a link kept
# from the fetch before, and the simulator's TestRunAllocs a timed run's
# invocation at L3, L2 and L1. This runs each alone with every allocation
# profiled (go test -memprofilerate=1 -memprofile) and prints the
# profile's allocation sites (go tool pprof -sample_index=alloc_objects
# -top) with their counts divided by the calls the test made (for the
# simulator, the invocations of its three runs), its warm-up included:
# the per-site inventory behind a change to any of the pins. A site's
# one-off allocations (the cluster's start, the library's deploy, the
# first parse of a text, the link's dial, the simulated workers) are
# spread over those calls, and sites under 0.1% of the total are left
# out. Print-only: it
# needs no network and changes nothing; the test binaries and profiles go
# to a temporary directory removed on exit.
#
#   bash scripts/allocs.sh            (or: make allocs)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go test -c -o "$work/taskvine.test" ./taskvine
go test -c -o "$work/dataplane.test" ./internal/dataplane
go test -c -o "$work/sim.test" ./internal/sim

for pin in taskvine:TestInvocationLedger taskvine:TestWrappedCallLedger internal/dataplane:TestReusedPeerFetchAllocs internal/sim:TestRunAllocs; do
	dir="${pin%%:*}" name="${pin#*:}"
	bin="$work/$(basename "$dir").test"
	# The pin's verdict is the test's business: a profile is printed
	# whatever it reads. Its log gives the calls (or invocations) it made
	# in all.
	out="$(cd "$dir" && "$bin" -test.run "^$name\$" -test.count=1 -test.v \
		-test.memprofilerate=1 -test.memprofile "$work/$name.prof" || true)"
	calls="$(sed -n 's/.* \([0-9][0-9]* [a-z]*\) in all.*/\1/p' <<<"$out")"
	if [[ -z "$calls" ]]; then
		echo "allocs: $name logged no call count:" >&2
		echo "$out" >&2
		exit 1
	fi
	per="$(grep -o '[0-9.]* allocations per [A-Za-z0-9 ]*\(call\|invocation\)' <<<"$out" | paste -sd ';' | sed 's/;/, /g')"
	echo "== $name: $per, $calls profiled"
	unit="${calls#* }" calls="${calls%% *}"
	go tool pprof -sample_index=alloc_objects -top -nodefraction=0.001 \
		"$bin" "$work/$name.prof" 2>/dev/null |
		awk -v calls="$calls" -v unit="${unit%s}" '
			$1 == "flat" { printf "%16s %16s  %s\n", "flat/" unit, "cum/" unit, "site"; body = 1; next }
			body && NF >= 6 && $1 ~ /^[0-9]+$/ && $1 > 0 && $4 ~ /^[0-9]+$/ {
				site = $6; for (i = 7; i <= NF; i++) site = site " " $i
				printf "%16.3f %16.3f  %s\n", $1 / calls, $4 / calls, site
			}'
done
