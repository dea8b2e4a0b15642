#!/usr/bin/env bash
# Short fuzz pass over every Fuzz* target in the module: each target
# runs for FUZZTIME (default 10s) after its committed seed corpus
# (testdata/fuzz/<Target>) replays. Targets are discovered with
# `go test -list`, so a new one joins without editing this script. A
# failure stops the pass; the crasher lands in the package's
# testdata/fuzz/<Target> directory, ready to commit as a regression
# seed once the program is fixed.
#
# Usage:
#   scripts/fuzz.sh              # every target, FUZZTIME each
#   FUZZTIME=60s scripts/fuzz.sh
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-10s}"

# `go test -list` prints a package's matching names, then its "ok" line.
targets=$("$GO" test -list '^Fuzz' ./... | awk '
	/^Fuzz/ { names = names " " $1; next }
	/^ok/   { n = split(names, a, " "); for (i = 1; i <= n; i++) print $2, a[i]; names = "" }
')
if [ -z "$targets" ]; then
	echo "fuzz: no Fuzz targets found" >&2
	exit 1
fi
count=$(printf '%s\n' "$targets" | wc -l)
echo "fuzz: $count targets, $FUZZTIME each"
printf '%s\n' "$targets" | while read -r pkg name; do
	echo "== $pkg $name"
	"$GO" test "$pkg" -run '^$' -fuzz "^${name}\$" -fuzztime "$FUZZTIME"
done
