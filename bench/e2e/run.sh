#!/usr/bin/env bash
# Builds emogi_e2e -- with the emogi_serve and make_fixtures binaries it
# drives -- from this checkout into build-e2e/, then runs it with the
# given arguments (see bench/e2e/README.md):
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   bench/e2e/run.sh compare A.jsonl B.jsonl
#
# Build output goes to stderr; stdout is the benchmark's alone, ending
# with its one-line JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run.sh: no EMOGI source tree at $root" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 4)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" --target emogi_e2e >&2

exec "$build/emogi_e2e" "$@"
