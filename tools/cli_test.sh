#!/bin/sh
# Smoke test for tds_cli: stream processing, probing, snapshot resume.
set -e
CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

printf '1 3\n2 0\n5 7\n9 2\n12 1\n' > "$TMP/stream.txt"
"$CLI" --decay=poly:1.0 --probe=4 "$TMP/stream.txt" > "$TMP/out.txt"
grep -q '^12' "$TMP/out.txt"

# Snapshot resume must equal single-pass processing.
printf '1 5\n3 5\n' > "$TMP/p1.txt"
printf '6 5\n9 5\n' > "$TMP/p2.txt"
printf '1 5\n3 5\n6 5\n9 5\n' > "$TMP/full.txt"
"$CLI" --decay=sliwin:8 --save="$TMP/state.tds" "$TMP/p1.txt" > /dev/null
"$CLI" --decay=sliwin:8 --load="$TMP/state.tds" "$TMP/p2.txt" | tail -1 > "$TMP/resumed.txt"
"$CLI" --decay=sliwin:8 "$TMP/full.txt" | tail -1 > "$TMP/single.txt"
cmp "$TMP/resumed.txt" "$TMP/single.txt"

# Wrong decay on load must fail.
if "$CLI" --decay=sliwin:9 --load="$TMP/state.tds" "$TMP/p2.txt" > /dev/null 2>&1; then
  echo "expected decay mismatch to fail" >&2
  exit 1
fi

# Engine mode: "tick key value" triples -> merged-snapshot report. With a
# full window, key 7 carries 3+5 = 8 and tops the ranking.
printf '1 7 3\n1 9 2\n2 7 5\n3 11 1\n' > "$TMP/keyed.txt"
"$CLI" --decay=sliwin:64 --engine=2 --topk=2 "$TMP/keyed.txt" > "$TMP/engine.txt"
grep -q '^# engine: 2 shards, 4 items, 3 keys' "$TMP/engine.txt"
head -1 "$TMP/engine.txt" | grep -q 'cut tick 3'
grep -q '^7	8.000000$' "$TMP/engine.txt"

# Engine mode rejects the single-aggregate snapshot options.
if "$CLI" --engine=2 --save="$TMP/state.tds" "$TMP/keyed.txt" > /dev/null 2>&1; then
  echo "expected --engine with --save to fail" >&2
  exit 1
fi

# Checkpoint log: ingest -> commit, then resume into a fresh engine with no
# further input -> identical top-k report (comments carry run-local
# counters, so compare the data rows only).
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 "$TMP/keyed.txt" \
  | grep -v '^#' > "$TMP/ckpt_rows.txt"
: > "$TMP/empty.txt"
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 \
  --checkpoint-dir="$TMP/fulllog" "$TMP/keyed.txt" > /dev/null 2>&1
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 \
  --checkpoint-dir="$TMP/fulllog" "$TMP/empty.txt" \
  2> "$TMP/fulllog_err.txt" | grep -v '^#' > "$TMP/restored_rows.txt"
grep -q '# resumed from checkpoint log' "$TMP/fulllog_err.txt"
cmp "$TMP/restored_rows.txt" "$TMP/ckpt_rows.txt"

# Two chained runs committing generations 1 and 2 into one directory must
# equal the uninterrupted run (crash/recover then catch up).
printf '1 7 3\n1 9 2\n' > "$TMP/keyed_p1.txt"
printf '2 7 5\n3 11 1\n' > "$TMP/keyed_p2.txt"
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 \
  --checkpoint-dir="$TMP/ckptlog" "$TMP/keyed_p1.txt" \
  > /dev/null 2> "$TMP/ckptlog_err1.txt"
grep -q 'generation 1' "$TMP/ckptlog_err1.txt"
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 \
  --checkpoint-dir="$TMP/ckptlog" "$TMP/keyed_p2.txt" \
  2> "$TMP/ckptlog_err2.txt" | grep -v '^#' > "$TMP/ckptlog_rows.txt"
grep -q '# resumed from checkpoint log' "$TMP/ckptlog_err2.txt"
grep -q 'generation 2' "$TMP/ckptlog_err2.txt"
cmp "$TMP/ckptlog_rows.txt" "$TMP/ckpt_rows.txt"

# A crash between the manifest commit's rotate and rename leaves only
# MANIFEST.tds.prev. The next run must still resume from it (not start
# empty and commit a full capture over the old generations), so a third
# run sees the whole history: key 7 carries 3+5+2.
printf '4 7 2\n' > "$TMP/keyed_p3.txt"
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 \
  --checkpoint-dir="$TMP/prevlog" "$TMP/keyed_p1.txt" > /dev/null 2>&1
mv "$TMP/prevlog/MANIFEST.tds" "$TMP/prevlog/MANIFEST.tds.prev"
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 \
  --checkpoint-dir="$TMP/prevlog" "$TMP/keyed_p2.txt" \
  2> "$TMP/prevlog_err.txt" | grep -v '^#' > "$TMP/prevlog_rows.txt"
grep -q '# resumed from checkpoint log' "$TMP/prevlog_err.txt"
cmp "$TMP/prevlog_rows.txt" "$TMP/ckpt_rows.txt"
"$CLI" --decay=sliwin:64 --engine=2 --topk=1 \
  --checkpoint-dir="$TMP/prevlog" "$TMP/keyed_p3.txt" 2> /dev/null \
  | grep -q '^7	10.000000$'

# A torn manifest or segment with no MANIFEST.tds.prev must refuse to
# resume.
"$CLI" --decay=sliwin:64 --engine=2 \
  --checkpoint-dir="$TMP/tornlog" "$TMP/keyed_p1.txt" > /dev/null 2>&1
test ! -e "$TMP/tornlog/MANIFEST.tds.prev"
for victim in MANIFEST.tds seg-1-s0.tds; do
  rm -rf "$TMP/torn"
  cp -r "$TMP/tornlog" "$TMP/torn"
  SIZE="$(wc -c < "$TMP/torn/$victim")"
  head -c "$((SIZE - 5))" "$TMP/tornlog/$victim" > "$TMP/torn/$victim"
  if "$CLI" --decay=sliwin:64 --engine=2 --checkpoint-dir="$TMP/torn" \
    "$TMP/empty.txt" > /dev/null 2>&1; then
    echo "expected resume from a torn $victim to fail" >&2
    exit 1
  fi
done

# Checkpoint options require engine mode.
if "$CLI" --checkpoint-dir="$TMP/x" "$TMP/stream.txt" > /dev/null 2>&1; then
  echo "expected --checkpoint-dir without --engine to fail" >&2
  exit 1
fi

# Standby catch-up + promote: a follower fed only the checkpoint directory
# must promote into an engine with the identical report, and the promoted
# engine must keep ingesting (failover without data loss).
"$CLI" --decay=sliwin:64 --engine=2 --topk=3 \
  --promote-from="$TMP/ckptlog" "$TMP/empty.txt" \
  2> "$TMP/standby_err.txt" | grep -v '^#' > "$TMP/promoted_rows.txt"
grep -q 'standby caught up to generation 2' "$TMP/standby_err.txt"
grep -q 'promoted standby -> primary' "$TMP/standby_err.txt"
cmp "$TMP/promoted_rows.txt" "$TMP/ckpt_rows.txt"
"$CLI" --decay=sliwin:64 --engine=2 --topk=1 \
  --promote-from="$TMP/ckptlog" "$TMP/keyed_p3.txt" 2> /dev/null \
  | grep -q '^7	10.000000$'

# A fingerprint mismatch must refuse both resume and promote.
if "$CLI" --decay=sliwin:64 --engine=2 --epsilon=0.2 \
  --checkpoint-dir="$TMP/ckptlog" "$TMP/empty.txt" > /dev/null 2>&1; then
  echo "expected checkpoint-log fingerprint mismatch to fail" >&2
  exit 1
fi
if "$CLI" --decay=sliwin:32 --engine=2 \
  --promote-from="$TMP/ckptlog" "$TMP/empty.txt" > /dev/null 2>&1; then
  echo "expected standby decay mismatch to fail" >&2
  exit 1
fi
# Polyexponential decay drives its pipelined-register backend, and its
# snapshot resumes like any other.
"$CLI" --decay=polyexp:2:0.05 --backend=polyexp "$TMP/full.txt" \
  > "$TMP/polyexp.txt"
grep -q '^# POLYEXP_PIPE over ' "$TMP/polyexp.txt"
"$CLI" --decay=polyexp:2:0.05 --backend=polyexp --save="$TMP/polyexp.tds" \
  "$TMP/p1.txt" > /dev/null
"$CLI" --decay=polyexp:2:0.05 --load="$TMP/polyexp.tds" "$TMP/p2.txt" \
  | tail -1 > "$TMP/polyexp_resumed.txt"
tail -1 "$TMP/polyexp.txt" | cmp - "$TMP/polyexp_resumed.txt"

# An input line with a negative count is malformed: skipped with a warning.
printf '1 5\n2 -3\n3 2\n' > "$TMP/negative.txt"
"$CLI" --decay=sliwin:8 --backend=ceh "$TMP/negative.txt" \
  > "$TMP/negative_out.txt" 2> "$TMP/negative_err.txt"
grep -q 'malformed line 2 skipped' "$TMP/negative_err.txt"
grep -q ': 7 items through tick 3$' "$TMP/negative_out.txt"

# Numbers are read whole and in range: anything else exits 2, naming what
# it refused, before any input is read or any shard starts.
refuses() {
  want="$1"
  shift
  set +e
  "$CLI" "$@" "$TMP/stream.txt" > /dev/null 2> "$TMP/refused.txt"
  status=$?
  set -e
  if [ "$status" -ne 2 ] || ! grep -qF -- "$want" "$TMP/refused.txt"; then
    echo "expected $* to exit 2 naming $want (exit $status)" >&2
    exit 1
  fi
}
refuses sliwin:8x --decay=sliwin:8x
refuses sliwin:1e30 --decay=sliwin:1e30
refuses polyexp:2 --decay=polyexp:2
refuses 4294967297 --engine=4294967297
refuses 257 --engine=257
refuses epsilon --epsilon=2
refuses 10x --probe=10x
refuses nope --backend=nope
echo CLI_SMOKE_OK
