#!/bin/sh
# End-to-end socket smoke test for the sketchd daemon, in seven acts:
#
#  0. flag hygiene: docs/OPERATIONS.md's flag table and `sketchd --help`
#     must name the same flags, and a numeric flag whose value is out of
#     range or not a number is a usage error (exit 2).
#  1. legacy single-shard pass: start on a temp data dir, ingest 10k
#     values over the wire via ddsketch_cli, check that the WAL logged
#     them as units (at most 9 bytes a value), check the quantiles against
#     an in-process reference sketch built from the same values (within
#     the paper's accuracy bound), check that remote-stats prints
#     exactly the keys of OPERATIONS.md's STATS field table, check the
#     daemon's own v4 per-op ack-latency rows (nonzero INGEST/QUERY
#     counts, ordered percentiles), SIGKILL the daemon, restart it, and
#     verify recovery answers byte-identically.
#  2. sharded pass (--shards 4): ingest the same stream into four series,
#     observe a background checkpoint via remote-stats (epoch advances
#     with no client CHECKPOINT), SIGKILL, restart WITHOUT --shards
#     (auto-detect from the SHARDS manifest), verify byte-identical
#     answers, and finally open the sharded directory directly with
#     `ddsketch_cli query --data-dir`.
#  3. event-loop scale pass (ulimit permitting): park ~1k idle
#     connections, drive a hot minority through them, and check that
#     ingest completes, RSS stays flat while the idle majority is
#     parked, and remote-stats reports the connection/backpressure
#     counters.
#  4. replication failover pass: primary + follower pair, ingest 5k
#     values, SIGKILL the primary, remote-promote the follower, verify
#     it answers byte-identically and accepts writes, then bring the
#     deposed primary's directory back as a follower and verify direct
#     writes to it are refused with FENCED.
#  5. rollup retention pass: a 10s→10m laddered daemon vs a never-folding
#     baseline fed the same 8-hour aged stream; remote-compact must preserve
#     coarse-window answers byte-identically, shrink the snapshot >=4x,
#     surface per-level remote-stats rows, and survive SIGKILL+restart.
#  6. per-tag admission pass (--tag-budget gold=3,bronze=1): tagged
#     remote-stress traffic from two tenants is fully acked, each tag's
#     summary line names its ledger, and remote-stats exposes one `tag`
#     row per tenant with weighted floors, drained staging, and a
#     per-tag ack-latency sketch that counted every record.
set -eu

SKETCHD="$1"
CLI="$2"
OPS="$3"
WORK="$(mktemp -d)"
PID=""
PID2=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null
  [ -n "$PID2" ] && kill -9 "$PID2" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_port() {
  # sketchd writes the bound port atomically once it is listening.
  i=0
  while [ ! -s "$1" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "sketchd did not start"; exit 1; }
    sleep 0.1
  done
  cat "$1"
}

# --- 0: no doc drift -------------------------------------------------------
# The operator manual's flag table (between the flags:begin/flags:end
# markers) is the contract: it and --help must name the same flags, so
# a flag can be neither added nor removed on one side only.
HELP="$("$SKETCHD" --help)"
printf '%s\n' "$HELP" | grep -oE -- '--[a-z][a-z-]*' | sort -u \
  > "$WORK/flags_help.txt"
sed -n '/flags:begin/,/flags:end/p' "$OPS" | grep -oE -- '--[a-z][a-z-]*' \
  | sort -u > "$WORK/flags_doc.txt"
# Guard the grep itself: if the doc's table markers move, fail loudly
# instead of silently checking nothing.
[ "$(wc -l < "$WORK/flags_doc.txt")" -ge 8 ] || {
  echo "flag table not found in $OPS"; exit 1; }
diff "$WORK/flags_doc.txt" "$WORK/flags_help.txt" || {
  echo "OPERATIONS.md's flag table (<) and sketchd --help (>) differ"; exit 1; }

# A port past 65535 must not wrap to another port, and a word must not
# read as 0 (auto-detect). The timeout only bounds a daemon that wrongly
# starts; a correct one exits before opening the data directory.
for bad in "--port 70000" "--shards four"; do
  RC=0
  # shellcheck disable=SC2086  # split "$bad" into flag and value
  timeout 10 "$SKETCHD" --data-dir "$WORK/badflag" $bad \
    > "$WORK/badflag.log" 2>&1 || RC=$?
  [ "$RC" -eq 2 ] || {
    echo "sketchd $bad exited $RC, want 2 (usage error)"
    cat "$WORK/badflag.log"; exit 1; }
done

"$CLI" generate web_latency 10000 42 > "$WORK/values.txt"
[ "$(wc -l < "$WORK/values.txt")" -eq 10000 ]

# --- 1: legacy single-shard pass -------------------------------------------
"$SKETCHD" --data-dir "$WORK/data" --port 0 --port-file "$WORK/port" \
  > "$WORK/sketchd.log" 2>&1 &
PID=$!
PORT="$(wait_for_port "$WORK/port")"

# Ingest >=10k values over the socket; every ack is a durable commit.
"$CLI" remote-ingest --port "$PORT" --series api.latency --timestamp 100 \
  < "$WORK/values.txt"
# Single-shard mode keeps the legacy flat layout (no SHARDS manifest).
[ -f "$WORK/data/wal.log" ]
[ ! -f "$WORK/data/SHARDS" ]
# Each pipelined run of frames of one series at one timestamp is one
# unit, logged as one WAL record of 8-byte values (record type 3 in
# src/timeseries/wal.h): 10k values take at most 9 bytes each after the
# 13-byte header, where one record per value took about 28.
WAL_BYTES="$(wc -c < "$WORK/data/wal.log")"
[ "$WAL_BYTES" -le $((13 + 9 * 10000)) ] || {
  echo "wal.log holds $WAL_BYTES bytes for 10000 values," \
    "want at most $((13 + 9 * 10000)): INGEST frames were not logged as units"
  exit 1; }

"$CLI" remote-query --port "$PORT" --series api.latency --start 0 --end 200 \
  0.5 0.95 0.99 > "$WORK/q1.txt"
[ -s "$WORK/q1.txt" ]

# Reference: the same values sketched in-process at the same alpha. The
# daemon's interval sketch saw the identical stream, so each quantile
# must agree within the paper's relative-accuracy bound 2a/(1-a) ~ 2.02%
# for a = 0.01 (they actually agree exactly; the tolerance guards the
# check against future divergence, not against the sketch).
"$CLI" build --alpha 0.01 --out "$WORK/ref.dds" < "$WORK/values.txt"
"$CLI" query "$WORK/ref.dds" 0.5 0.95 0.99 > "$WORK/qref.txt"
paste "$WORK/q1.txt" "$WORK/qref.txt" | awk '
  { a = $2; b = $4; d = a - b; if (d < 0) d = -d;
    m = b; if (m < 0) m = -m;
    if (m == 0 || d / m > 0.0202) { print "quantile mismatch:", $0; bad = 1 } }
  END { exit bad }'

# Dogfooding: the daemon measured its own acks with a DDSketch. After
# 10k ingests and one query the INGEST/QUERY latency rows must carry
# those counts, and each populated row's percentiles must be ordered
# (p50 <= p90 <= p99 <= p999; the exact max bounds the p999 estimate
# within the sketch's relative accuracy).
"$CLI" remote-stats --port "$PORT" > "$WORK/stats1.txt"

# No STATS drift: the first words remote-stats prints — every scalar and
# every row kind, as any live daemon has op_latency, shard, level and tag
# rows — are exactly the keys of OPERATIONS.md's STATS field table
# (between the stats:begin/stats:end markers).
awk '{ print $1 }' "$WORK/stats1.txt" | sort -u > "$WORK/stats_keys.txt"
sed -n '/stats:begin/,/stats:end/p' "$OPS" | grep -oE '^\| `[a-z0-9_]+' \
  | sed 's/^| `//' | sort -u > "$WORK/stats_doc.txt"
[ "$(wc -l < "$WORK/stats_doc.txt")" -ge 20 ] || {
  echo "STATS field table not found in $OPS"; exit 1; }
diff "$WORK/stats_doc.txt" "$WORK/stats_keys.txt" || {
  echo "OPERATIONS.md's STATS table (<) and remote-stats (>) differ"; exit 1; }

grep -q '^op_latency INGEST ' "$WORK/stats1.txt" || {
  echo "remote-stats lacks op_latency rows"; cat "$WORK/stats1.txt"; exit 1; }
awk '
  $1 == "op_latency" {
    op = $2
    for (i = 3; i <= NF; i++) {
      split($i, kv, "="); row[op "." kv[1]] = kv[2]
    }
  }
  END {
    if (row["INGEST.count"] < 10000) {
      print "INGEST latency count " row["INGEST.count"] " < 10000"; exit 1 }
    if (row["QUERY.count"] < 1) {
      print "QUERY latency row empty"; exit 1 }
    for (op in row) {
      split(op, part, "."); o = part[1]
      if (part[2] != "count" || row[o ".count"] == 0) continue
      if (row[o ".p50_us"] <= 0 ||
          row[o ".p50_us"] > row[o ".p90_us"] ||
          row[o ".p90_us"] > row[o ".p99_us"] ||
          row[o ".p99_us"] > row[o ".p999_us"] ||
          row[o ".p999_us"] > row[o ".max_us"] * 1.05) {
        print o " latency percentiles not ordered"; exit 1 }
    }
  }' "$WORK/stats1.txt" || { cat "$WORK/stats1.txt"; exit 1; }

# Crash hard: no shutdown hook runs; recovery must come from the WAL.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

"$SKETCHD" --data-dir "$WORK/data" --port 0 --port-file "$WORK/port2" \
  > "$WORK/sketchd2.log" 2>&1 &
PID=$!
PORT="$(wait_for_port "$WORK/port2")"

"$CLI" remote-query --port "$PORT" --series api.latency --start 0 --end 200 \
  0.5 0.95 0.99 > "$WORK/q2.txt"
# Every ingest was acknowledged before the kill, so recovery must answer
# byte-identically.
cmp "$WORK/q1.txt" "$WORK/q2.txt"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# --- 2: sharded pass (--shards 4, background checkpoints on) ---------------
"$SKETCHD" --data-dir "$WORK/data4" --shards 4 --checkpoint-wal-bytes 16384 \
  --port 0 --port-file "$WORK/port4" > "$WORK/sketchd4.log" 2>&1 &
PID=$!
PORT="$(wait_for_port "$WORK/port4")"

# The same 10k values into four series: the hash spreads them over the
# shards, and each series' sketch must equal the single-shard run's.
for s in 0 1 2 3; do
  "$CLI" remote-ingest --port "$PORT" --series "api.latency.$s" \
    --timestamp 100 < "$WORK/values.txt"
done
[ -f "$WORK/data4/SHARDS" ]
[ -d "$WORK/data4/shard-0" ] && [ -d "$WORK/data4/shard-3" ]

for s in 0 1 2 3; do
  "$CLI" remote-query --port "$PORT" --series "api.latency.$s" \
    --start 0 --end 200 0.5 0.95 0.99 > "$WORK/q4_$s.txt"
  # Identical input stream at the same alpha: the sharded daemon must
  # answer exactly what the single-shard daemon answered.
  cmp "$WORK/q4_$s.txt" "$WORK/q1.txt"
done

# Background checkpoints: each series pushed ~81 kB of units into its
# shard's WAL, about five times --checkpoint-wal-bytes, so the scheduler
# must have checkpointed (epoch >= 2 on some shard) with no client
# CHECKPOINT sent.
i=0
while :; do
  "$CLI" remote-stats --port "$PORT" > "$WORK/stats4.txt"
  BG="$(awk '$1 == "background_checkpoints" { print $2 }' "$WORK/stats4.txt")"
  [ "${BG:-0}" -gt 0 ] && break
  i=$((i + 1))
  [ "$i" -le 100 ] || {
    echo "no background checkpoint observed"; cat "$WORK/stats4.txt"; exit 1; }
  sleep 0.1
done
grep -E '^shard [0-9]+ .* epoch=([2-9]|[1-9][0-9])' "$WORK/stats4.txt" \
  > /dev/null || {
    echo "no shard epoch advanced"; cat "$WORK/stats4.txt"; exit 1; }

# Crash hard mid-life and restart WITHOUT --shards: the SHARDS manifest
# must be auto-detected and every acknowledged ingest recovered.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

"$SKETCHD" --data-dir "$WORK/data4" --port 0 --port-file "$WORK/port4b" \
  > "$WORK/sketchd4b.log" 2>&1 &
PID=$!
PORT="$(wait_for_port "$WORK/port4b")"

for s in 0 1 2 3; do
  "$CLI" remote-query --port "$PORT" --series "api.latency.$s" \
    --start 0 --end 200 0.5 0.95 0.99 > "$WORK/q5_$s.txt"
  cmp "$WORK/q5_$s.txt" "$WORK/q4_$s.txt"
done

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# The CLI opens the sharded directory directly (auto-detected layout,
# same hash route) and answers exactly like the daemon did.
"$CLI" query --data-dir "$WORK/data4" --series api.latency.2 \
  --start 0 --end 200 0.5 0.95 0.99 > "$WORK/qcli.txt"
cmp "$WORK/qcli.txt" "$WORK/q1.txt"

# --- 3: event-loop scale pass (1k idle conns + hot minority) ---------------
# Each parked connection costs one fd on both sides plus the CLI's own;
# skip (not fail) when the environment cannot hold ~2.3k descriptors.
NOFILE="$(ulimit -n 2>/dev/null || echo 0)"
if [ "$NOFILE" != "unlimited" ] && [ "${NOFILE:-0}" -lt 2400 ]; then
  ulimit -n 2400 2>/dev/null || true
  NOFILE="$(ulimit -n 2>/dev/null || echo 0)"
fi
if [ "$NOFILE" = "unlimited" ] || [ "${NOFILE:-0}" -ge 2400 ]; then
  "$SKETCHD" --data-dir "$WORK/data_scale" --port 0 \
    --port-file "$WORK/port_scale" > "$WORK/sketchd_scale.log" 2>&1 &
  PID=$!
  PORT="$(wait_for_port "$WORK/port_scale")"

  rss_kb() { awk '$1 == "VmRSS:" { print $2 }' "/proc/$1/status"; }

  # Warm up (first ingest maps the store), then baseline RSS.
  "$CLI" remote-stress --port "$PORT" --series warm \
    --idle-conns 0 --hot-conns 1 --count 100 > /dev/null
  RSS0="$(rss_kb "$PID")"

  # The scale run: ~1k parked idle connections, 4 hot ones ingesting.
  "$CLI" remote-stress --port "$PORT" --series scale \
    --idle-conns 1000 --hot-conns 4 --count 2500 > "$WORK/stress.txt"
  cat "$WORK/stress.txt"
  PARKED="$(awk '$1 == "parked_conns" { print $2 }' "$WORK/stress.txt")"
  ACKED="$(awk '$1 == "acked" { print $2 }' "$WORK/stress.txt")"
  [ "${PARKED:-0}" -ge 900 ] || { echo "parked only $PARKED conns"; exit 1; }
  # Ingest completed: every send was acked (refused-after-retry is a
  # failure here; the default budget cannot fill from 4 writers).
  [ "${ACKED:-0}" -eq 10000 ] || { echo "acked $ACKED of 10000"; exit 1; }

  # RSS stayed flat: parked connections are epoll registrations, not
  # threads/stacks. Allow 32 MB of slack over the warm baseline.
  RSS1="$(rss_kb "$PID")"
  GROWTH=$((RSS1 - RSS0))
  [ "$GROWTH" -le 32768 ] || {
    echo "RSS grew ${GROWTH} kB across the 1k-conn pass"; exit 1; }

  # The v3 serving counters are visible over the wire and plausible:
  # every stress connection was counted, and nothing is left staged.
  "$CLI" remote-stats --port "$PORT" > "$WORK/stats_scale.txt"
  for key in connections_open connections_accepted connections_shed \
             busy_rejections staged_bytes; do
    grep -q "^$key " "$WORK/stats_scale.txt" || {
      echo "remote-stats lacks $key"; cat "$WORK/stats_scale.txt"; exit 1; }
  done
  ACCEPTED="$(awk '$1 == "connections_accepted" { print $2 }' "$WORK/stats_scale.txt")"
  STAGED="$(awk '$1 == "staged_bytes" { print $2 }' "$WORK/stats_scale.txt")"
  [ "${ACCEPTED:-0}" -ge 1000 ] || {
    echo "connections_accepted only $ACCEPTED"; exit 1; }
  [ "${STAGED:-1}" -eq 0 ] || { echo "staged_bytes stuck at $STAGED"; exit 1; }

  kill "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""
else
  echo "skipping act 3: ulimit -n is $NOFILE (< 2400)"
fi

# --- 4: replication failover pass ------------------------------------------
"$SKETCHD" --data-dir "$WORK/dataP" --port 0 --port-file "$WORK/portP" \
  > "$WORK/sketchdP.log" 2>&1 &
PID=$!
PORT_P="$(wait_for_port "$WORK/portP")"

"$SKETCHD" --data-dir "$WORK/dataF" --role follower \
  --follow "127.0.0.1:$PORT_P" --port 0 --port-file "$WORK/portF" \
  > "$WORK/sketchdF.log" 2>&1 &
PID2=$!
PORT_F="$(wait_for_port "$WORK/portF")"

# Wait for the follower to bootstrap and subscribe; from then on the
# primary's semi-sync ack gate means every acked record reached it.
i=0
while :; do
  "$CLI" remote-stats --port "$PORT_F" > "$WORK/statsF.txt" 2>/dev/null || true
  grep -q '^repl_connected 1' "$WORK/statsF.txt" && break
  i=$((i + 1))
  [ "$i" -le 100 ] || {
    echo "follower never connected"; cat "$WORK/statsF.txt"; exit 1; }
  sleep 0.1
done
grep -q '^role follower' "$WORK/statsF.txt"

head -5000 "$WORK/values.txt" | "$CLI" remote-ingest --port "$PORT_P" \
  --series repl.latency --timestamp 100

# The reference answer comes from the primary while it is still alive...
"$CLI" remote-query --port "$PORT_P" --series repl.latency \
  --start 0 --end 200 0.5 0.95 0.99 > "$WORK/qP.txt"
[ -s "$WORK/qP.txt" ]

# ... then kill -9 it (no shutdown hook) and promote the follower.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
"$CLI" remote-promote --port "$PORT_F" > "$WORK/promote.txt" 2>&1
grep -q '^promoted: fence_token' "$WORK/promote.txt"

# Every acked record survived the failover: the promoted follower
# answers byte-identically to the dead primary, and accepts writes now
# that it holds the fencing token.
"$CLI" remote-query --port "$PORT_F" --series repl.latency \
  --start 0 --end 200 0.5 0.95 0.99 > "$WORK/qF.txt"
cmp "$WORK/qP.txt" "$WORK/qF.txt"
echo "3.25" | "$CLI" remote-ingest --port "$PORT_F" --series repl.latency \
  --timestamp 150
"$CLI" remote-stats --port "$PORT_F" > "$WORK/statsF2.txt"
grep -q '^role primary' "$WORK/statsF2.txt"

# The deposed primary's directory carries a stale fencing token: brought
# back as a follower of the new primary it may resync, but a direct
# write to it must be refused with FENCED.
"$SKETCHD" --data-dir "$WORK/dataP" --role follower \
  --follow "127.0.0.1:$PORT_F" --port 0 --port-file "$WORK/portP2" \
  > "$WORK/sketchdP2.log" 2>&1 &
PID=$!
PORT_P2="$(wait_for_port "$WORK/portP2")"
if echo "9.5" | "$CLI" remote-ingest --port "$PORT_P2" \
     --series repl.latency --timestamp 160 > "$WORK/fenced.txt" 2>&1; then
  echo "stale ex-primary accepted a write"; exit 1
fi
grep -q 'FENCED' "$WORK/fenced.txt"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""
kill "$PID2"
wait "$PID2" 2>/dev/null || true
PID2=""

# --- 5: rollup retention pass ----------------------------------------------
# Two daemons fed the identical aged stream: one with a 10s→10m rollup
# ladder (raw kept 10 minutes), one pinned to a single never-folding
# level. remote-compact must (a) leave every coarse-window answer
# byte-identical, (b) shrink the laddered snapshot at least 4x below the
# flat one (the fold merges 60 sketches into one; the merged sketches
# are denser, so the byte win is smaller than 60x but well past 4x),
# (c) expose per-level rows
# in remote-stats, and (d) survive a SIGKILL + restart byte-identically
# (rollup state lives only in snapshots, so recovery replays cleanly).
awk '{ print NR * 3, $0 }' "$WORK/values.txt" > "$WORK/aged.txt"

"$SKETCHD" --data-dir "$WORK/dataR" --rollup-levels 10s,10m \
  --retention 10m,inf --port 0 --port-file "$WORK/portR" \
  > "$WORK/sketchdR.log" 2>&1 &
PID=$!
PORT_R="$(wait_for_port "$WORK/portR")"
"$SKETCHD" --data-dir "$WORK/dataB" --rollup-levels 10s --retention inf \
  --port 0 --port-file "$WORK/portB" > "$WORK/sketchdB.log" 2>&1 &
PID2=$!
PORT_B="$(wait_for_port "$WORK/portB")"

"$CLI" remote-ingest --port "$PORT_R" --series aged.latency < "$WORK/aged.txt"
"$CLI" remote-ingest --port "$PORT_B" --series aged.latency < "$WORK/aged.txt"

# Window [0, 30600) is aligned to the 600s coarse interval, so rollup
# is invisible to it by construction.
"$CLI" remote-query --port "$PORT_R" --series aged.latency \
  --start 0 --end 30600 0.5 0.9 0.95 0.99 > "$WORK/qR.txt"
"$CLI" remote-query --port "$PORT_B" --series aged.latency \
  --start 0 --end 30600 0.5 0.9 0.95 0.99 > "$WORK/qB.txt"
cmp "$WORK/qR.txt" "$WORK/qB.txt"

# Fold both (the flat daemon's compact folds nothing but still
# checkpoints, leaving both stores snapshot-resident and comparable).
"$CLI" remote-compact --port "$PORT_R" > "$WORK/compactR.txt"
cat "$WORK/compactR.txt"
COMPACTED="$(awk '$1 == "compacted" { print $2 }' "$WORK/compactR.txt")"
[ "${COMPACTED:-0}" -gt 0 ] || { echo "rollup compact folded nothing"; exit 1; }
"$CLI" remote-compact --port "$PORT_B" > /dev/null

"$CLI" remote-query --port "$PORT_R" --series aged.latency \
  --start 0 --end 30600 0.5 0.9 0.95 0.99 > "$WORK/qR2.txt"
cmp "$WORK/qR.txt" "$WORK/qR2.txt"

# Per-level visibility: two rows, geometry as configured, folds counted
# only into the coarse level.
"$CLI" remote-stats --port "$PORT_R" > "$WORK/statsR.txt"
grep -q '^level 0 interval_s=10 retention_s=600 ' "$WORK/statsR.txt" || {
  echo "remote-stats lacks the raw level row"; cat "$WORK/statsR.txt"; exit 1; }
grep -Eq '^level 1 interval_s=600 retention_s=0 intervals=[1-9][0-9]* rollup_merges=[1-9][0-9]*' \
  "$WORK/statsR.txt" || {
  echo "remote-stats lacks a folded coarse level row"; cat "$WORK/statsR.txt"; exit 1; }

# The on-disk win: the rolled-up snapshot must be at least 4x smaller
# than the never-folded one (sixty 10s sketches merged into each 10m
# sketch; identical answers above prove nothing was lost that a coarse
# window could see).
SR="$(wc -c < "$WORK/dataR/snapshot.dds")"
SB="$(wc -c < "$WORK/dataB/snapshot.dds")"
[ $((SR * 4)) -le "$SB" ] || {
  echo "rollup snapshot $SR bytes, flat $SB: shrink < 4x"; exit 1; }

# SIGKILL the rolled-up daemon; restart must recover the folded store
# and answer byte-identically.
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
"$SKETCHD" --data-dir "$WORK/dataR" --rollup-levels 10s,10m \
  --retention 10m,inf --port 0 --port-file "$WORK/portR2" \
  > "$WORK/sketchdR2.log" 2>&1 &
PID=$!
PORT_R="$(wait_for_port "$WORK/portR2")"
"$CLI" remote-query --port "$PORT_R" --series aged.latency \
  --start 0 --end 30600 0.5 0.9 0.95 0.99 > "$WORK/qR3.txt"
cmp "$WORK/qR.txt" "$WORK/qR3.txt"

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""
kill "$PID2" 2>/dev/null || true
wait "$PID2" 2>/dev/null || true
PID2=""

# --- 6: per-tag admission pass ---------------------------------------------
"$SKETCHD" --data-dir "$WORK/dataT" --tag-budget "gold=3,bronze=1" \
  --port 0 --port-file "$WORK/portT" > "$WORK/sketchdT.log" 2>&1 &
PID=$!
PORT_T="$(wait_for_port "$WORK/portT")"

# Two tagged tenants ingest through remote-stress. Neither approaches
# its ledger's floor at this rate, so every record must be acked and
# each run's summary line must name the ledger it was charged to.
"$CLI" remote-stress --port "$PORT_T" --series tenant.gold --tag gold \
  --idle-conns 0 --hot-conns 2 --count 1000 > "$WORK/stressG.txt"
grep -q '^tag_summary gold acked=2000 refused_busy=0$' "$WORK/stressG.txt" || {
  echo "gold stress summary wrong"; cat "$WORK/stressG.txt"; exit 1; }
"$CLI" remote-stress --port "$PORT_T" --series tenant.bronze --tag bronze \
  --idle-conns 0 --hot-conns 1 --count 500 > "$WORK/stressB.txt"
grep -q '^tag_summary bronze acked=500 refused_busy=0$' "$WORK/stressB.txt" || {
  echo "bronze stress summary wrong"; cat "$WORK/stressB.txt"; exit 1; }

# Per-tag visibility over the wire: one row per registered tag, the
# configured weights skew the guaranteed floors, both ledgers drained
# back to zero, and each tag's own ack-latency sketch counted every
# acked record with ordered percentiles.
"$CLI" remote-stats --port "$PORT_T" > "$WORK/statsT.txt"
for t in default gold bronze; do
  grep -q "^tag $t " "$WORK/statsT.txt" || {
    echo "remote-stats lacks tag row $t"; cat "$WORK/statsT.txt"; exit 1; }
done
awk '
  $1 == "tag" {
    tag = $2
    for (i = 3; i <= NF; i++) { split($i, kv, "="); row[tag "." kv[1]] = kv[2] }
  }
  END {
    if (row["gold.floor_bytes"] + 0 < 2 * row["bronze.floor_bytes"]) {
      print "gold floor not weighted 3x over bronze"; exit 1 }
    if (row["gold.staged_bytes"] + 0 != 0 || row["bronze.staged_bytes"] + 0 != 0) {
      print "tag ledgers did not drain"; exit 1 }
    if (row["gold.busy_rejections"] + 0 != 0) {
      print "gold was refused below its floor"; exit 1 }
    if (row["gold.count"] + 0 < 2000) {
      print "gold latency count " row["gold.count"] " < 2000"; exit 1 }
    if (row["gold.p50_us"] + 0 <= 0 || row["gold.p50_us"] + 0 > row["gold.p99_us"] + 0 ||
        row["gold.p99_us"] + 0 > row["gold.p999_us"] + 0) {
      print "gold latency percentiles not ordered"; exit 1 }
  }' "$WORK/statsT.txt" || { cat "$WORK/statsT.txt"; exit 1; }

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "smoke_sketchd OK"
