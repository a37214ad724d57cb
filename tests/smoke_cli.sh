#!/bin/sh
# End-to-end smoke test for tools/ddsketch_cli: generate a stream, sketch
# it, inspect it, query it, and merge two sketches. Any non-zero exit or
# unexpected output fails the test.
set -eu

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate pareto 10000 42 > "$WORK/values.txt"
[ "$(wc -l < "$WORK/values.txt")" -eq 10000 ]

"$CLI" build --alpha 0.01 --out "$WORK/a.dds" < "$WORK/values.txt"
# Generate to a file rather than piping: in a pipeline, set -e only sees
# the last command's status, so a generate failure would be masked.
"$CLI" generate pareto 10000 7 > "$WORK/values2.txt"
"$CLI" build --alpha 0.01 --out "$WORK/b.dds" < "$WORK/values2.txt"

"$CLI" info "$WORK/a.dds" | grep -q "count"
"$CLI" query "$WORK/a.dds" 0.5 0.99 > "$WORK/q.txt"
[ -s "$WORK/q.txt" ]

"$CLI" merge "$WORK/merged.dds" "$WORK/a.dds" "$WORK/b.dds"
"$CLI" query "$WORK/merged.dds" 0.5 > /dev/null

# Durable time-series flow: ingest into a data dir (10000 values: three
# 4096-value commit windows), query it back, survive a reopen (fresh
# process), compact, and query the same answer again. The durable answer
# must be the one the in-memory sketch of the same values gives.
"$CLI" ingest --data-dir "$WORK/ts" --series svc --timestamp 100 < "$WORK/values.txt"
[ -f "$WORK/ts/wal.log" ]
"$CLI" query --data-dir "$WORK/ts" --series svc --start 0 --end 200 > "$WORK/d0.txt"
"$CLI" query "$WORK/a.dds" > "$WORK/s0.txt"
cmp "$WORK/d0.txt" "$WORK/s0.txt"
"$CLI" query --data-dir "$WORK/ts" --series svc --start 0 --end 200 0.5 > "$WORK/d1.txt"
[ -s "$WORK/d1.txt" ]
"$CLI" compact --data-dir "$WORK/ts" --now 100000
[ -f "$WORK/ts/snapshot.dds" ]
"$CLI" query --data-dir "$WORK/ts" --series svc --start 0 --end 200 0.5 > "$WORK/d2.txt"
cmp "$WORK/d1.txt" "$WORK/d2.txt"

# A malformed number is a usage error (exit 2), never another number:
# "12abc" is not timestamp 12, "1x" is not 1, and "1e3" is not a count.
usage_error() {
  RC=0
  "$@" < "$WORK/values.txt" > "$WORK/bad.txt" 2>&1 || RC=$?
  [ "$RC" -eq 2 ] || { echo "$* exited $RC, want 2"; cat "$WORK/bad.txt"; exit 1; }
}
usage_error "$CLI" ingest --data-dir "$WORK/ts" --series bad --timestamp 12abc
usage_error "$CLI" query --data-dir "$WORK/ts" --series svc --start 1x --end 200
usage_error "$CLI" generate pareto 1e3
# The refused ingest left nothing behind for its series.
if "$CLI" query --data-dir "$WORK/ts" --series bad --start 0 --end 200 \
     > "$WORK/bad.txt" 2>&1; then
  echo "a refused ingest stored data"; exit 1
fi

# A stdin line parses whole or not at all: a fractional timestamp, a
# third token and a number with a suffix are unparseable lines, skipped
# and counted, never other numbers.
printf '1.5 2.0\n7 3.0 junk\n2.5x\n' > "$WORK/junk.txt"
"$CLI" ingest --data-dir "$WORK/ts" --series junk --timestamp 100 \
  < "$WORK/junk.txt" 2> "$WORK/junk.err"
grep -q "ingested 0 values into junk (3 unparseable lines)" "$WORK/junk.err" \
  || { echo "ingest took malformed lines:"; cat "$WORK/junk.err"; exit 1; }
if "$CLI" query --data-dir "$WORK/ts" --series junk --start 0 --end 200 \
     > "$WORK/bad.txt" 2>&1; then
  echo "unparseable lines stored data"; exit 1
fi
printf '1.5\n2.5x\n1 2\n' > "$WORK/junk.txt"
"$CLI" build < "$WORK/junk.txt" > /dev/null 2> "$WORK/junk.err"
grep -q "built sketch: 1 values (2 unparseable lines)" "$WORK/junk.err" \
  || { echo "build took malformed lines:"; cat "$WORK/junk.err"; exit 1; }

echo "smoke_cli OK"
