#!/bin/sh
# `qoed_cli fleet` must exit non-zero when a merged artifact cannot be
# written, after a full run and with --merge-only alike.
#   cli_fleet_merge_test.sh path/to/qoed_cli workdir
set -u
CLI=$1
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"
printf '{"scenario":"post","reps":1,"seed":7}\n' > "$WORK/specs.jsonl"

fail() {
  echo "FAIL: $*"
  exit 1
}

# Clean run and clean re-merge exit 0.
"$CLI" fleet --specs="$WORK/specs.jsonl" --out-dir="$WORK/ok" \
  > "$WORK/ok.log" || fail "clean fleet run exited $?"
"$CLI" fleet --merge-only --out-dir="$WORK/ok" > "$WORK/ok-merge.log" ||
  fail "clean --merge-only exited $?"

# A manifest-listed metrics shard is gone: the metrics merge fails.
rm "$WORK/ok/metrics-000000.jsonl"
"$CLI" fleet --merge-only --out-dir="$WORK/ok" > "$WORK/missing.log"
rc=$?
[ "$rc" -ne 0 ] || fail "--merge-only with a missing shard exited 0"
grep -q "FAILED to write .*metrics.json" "$WORK/missing.log" ||
  fail "no FAILED line for metrics.json"

# A directory where the merged timeline goes: the full run fails.
mkdir -p "$WORK/blocked/timeline.jsonl/blocker"
"$CLI" fleet --specs="$WORK/specs.jsonl" --out-dir="$WORK/blocked" \
  > "$WORK/blocked.log"
rc=$?
[ "$rc" -ne 0 ] || fail "fleet run with an unwritable timeline exited 0"
grep -q "FAILED to write .*timeline.jsonl" "$WORK/blocked.log" ||
  fail "no FAILED line for timeline.jsonl"
echo "ok"
