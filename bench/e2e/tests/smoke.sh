#!/usr/bin/env bash
# e2e_smoke: every workload at --scale 65536 with a 2 s window, untraced
# then traced, must finish with correct answers (a run exits nonzero
# otherwise), print one result line per workload with failed == 0, and
# carry every metric BENCHMARK.json names (checked by `compare` of the
# ledger against itself).
#
# Usage: smoke.sh <emogi_e2e> <ledger.jsonl>
set -euo pipefail

E2E="$1"
LEDGER="$2"
rm -f "$LEDGER"

for trace in 0 1; do
  out="$("$E2E" run --scale 65536 --seconds 2 --trace "$trace" \
         --report "$LEDGER")"
  lines="$(printf '%s\n' "$out" | grep '^{"correct": ')"
  if [ "$(printf '%s\n' "$lines" | wc -l)" -ne 4 ] ||
     printf '%s\n' "$lines" | grep -v '^{"correct": true, .*"failed": 0, '; then
    echo "smoke: unexpected result lines (trace $trace):" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
done

"$E2E" compare "$LEDGER" "$LEDGER"
echo "e2e_smoke: OK"
