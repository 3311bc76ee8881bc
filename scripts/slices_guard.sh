#!/usr/bin/env bash
# slices_guard.sh — fail when a Makefile test slice names a test that no
# longer exists.
#
# A test slice is a `go test -run` regex of |-separated alternatives. If a
# test is renamed, its alternative silently matches nothing and the slice
# shrinks without an error. This script lists every test, benchmark,
# example and fuzz target in the module and checks that each alternative
# of each slice matches at least one of those names (unanchored, as -run
# matches them).
#
# Usage: scripts/slices_guard.sh NAME=REGEX [NAME=REGEX ...]
#        (`make slices-guard` passes the Makefile's slices)
set -euo pipefail
cd "$(dirname "$0")/.."

names=$(go test -list '.*' ./... | grep -E '^(Test|Benchmark|Example|Fuzz)' | sort -u)

status=0
checked=0
for slice in "$@"; do
	label=${slice%%=*}
	regex=${slice#*=}
	IFS='|' read -ra alts <<<"$regex"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "slices-guard: slice $label: alternative '$alt' matches no test" >&2
			status=1
		fi
	done
done
if [ "$status" -eq 0 ]; then
	echo "slices-guard: all $checked alternatives of $# slices match a test"
fi
exit "$status"
