#!/usr/bin/env bash
# Prints the non-test Go lines of internal/ and cmd/: one line per package
# directory (largest first), then their total. Informational: nothing is
# compared against a limit.
#
# Usage, from anywhere in the checkout: .github/scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

find internal cmd -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir)
		lines[dir] += $1; sum += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -rn"
		close("sort -rn")
		printf "%7d  internal + cmd\n", sum
	}'
