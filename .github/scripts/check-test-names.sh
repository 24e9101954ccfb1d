#!/usr/bin/env bash
# Fails when a test or fuzz target that .github/workflows/ci.yml names — in
# a -run pattern, or as a target of the fuzz-smoke loop — matches no test,
# fuzz target or benchmark in the module. go test runs nothing for such a
# pattern and passes, so a step naming a deleted or renamed test would go on
# passing without running it.
#
# Usage, from anywhere in the checkout: .github/scripts/check-test-names.sh
set -euo pipefail
cd "$(dirname "$0")/../.."
ci=.github/workflows/ci.yml

names=$(
	{
		grep -oE -- "-run '[^']*'" "$ci" | sed -E "s/^-run '//; s/'\$//" | tr '|' '\n'
		grep -oE '[a-z]+:Fuzz[A-Za-z0-9_]+' "$ci" | sed 's/^[a-z]*://'
	} | sed -E 's/^\^//; s/\$$//' | grep -v '^$' | sort -u
)
listed=$(go test -list '.*' ./... | grep -E '^(Test|Fuzz|Benchmark|Example)')

missing=0
for name in $names; do
	if ! grep -qE -- "$name" <<<"$listed"; then
		echo "ci.yml names $name, which matches no test" >&2
		missing=1
	fi
done
exit "$missing"
