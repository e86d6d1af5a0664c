#!/usr/bin/env bash
# End-to-end wire-protocol round trip: launch emogi_serve --listen on a
# Unix socket, wait for the socket file (bound only after shards load
# and renamed into place only after listen(), so its existence is the
# readiness signal), replay a seeded trace
# through emogi_client with --check (every answer compared against a
# dedicated in-process QueryService run) and --require-ok, then
# SIGINT-drain the server and require a clean exit 0.
#
# Before that, usage errors must exit exactly 2 without binding or
# connecting: for the server, no --listen, a retired simulated-serving
# flag, a flag nothing in it reads (--threads, --sources), the retired
# --mode or a non-numeric count; for the client (no server is up yet),
# the same unread flags, the retired --mode, and malformed numbers.
#
# After the first round trip, a second one serves real graphs out of
# core, with the environment bench/e2e starts its wire server with:
# EMOGI_DATA_DIR at the fixture edge lists, a fresh EMOGI_CACHE_DIR,
# EMOGI_MEMORY_BUDGET=1M and EMOGI_PAGED_CSR=1, for both tools. The
# server log must show the chunked, paged build, so those variables
# reach the ingest path.
#
# Usage: serve_roundtrip.sh <emogi_serve> <emogi_client> <scratch-dir>
#                           <fixture-dir>
# <fixture-dir> holds make_fixtures' edge lists. Respects EMOGI_SCALE /
# EMOGI_SOURCES etc. via the tools' own env handling.
set -euo pipefail

SERVE="$1"
CLIENT="$2"
DIR="$3"
FIXTURES="$4"
mkdir -p "$DIR"

# The socket lives in a fresh mktemp dir: sockaddr_un paths are limited
# to ~107 bytes and build trees (especially on CI) can exceed that.
SOCK_DIR="$(mktemp -d)"
SOCK="$SOCK_DIR/emogi.sock"
SERVE_LOG="$DIR/serve.log"

SERVE_PID=
cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -9 "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$SOCK_DIR"
}
trap cleanup EXIT

# A flag the server ignored would leave it serving; `timeout` turns
# that into a nonzero status other than 2 instead of a hang. A client
# that accepted its flags would fail to connect instead (exit 3).
expect_usage_error() {
  local status=0
  timeout 60 "$@" >"$DIR/usage.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || [ -e "$SOCK" ]; then
    echo "serve_roundtrip: '$*' exited $status, want usage error 2" \
         "with no socket" >&2
    cat "$DIR/usage.log" >&2
    exit 1
  fi
}
expect_usage_error "$SERVE" --filter sym=GK
for flags in "--burst" "--closed-loop 4" "--queries 8" "--max-lanes abc" \
             "--threads 8" "--sources 2" "--mode UVM"; do
  # shellcheck disable=SC2086  # $flags is a flag and its value.
  expect_usage_error "$SERVE" --listen "$SOCK" --filter sym=GK $flags
done
for flags in "--threads 2" "--sources 2" "--mode UVM" "--deadline-ms -5" \
             "--source abc" "--graph abc" "--weight 4294967296"; do
  # shellcheck disable=SC2086
  expect_usage_error "$CLIENT" --connect "$SOCK" --kind BFS $flags
done
expect_usage_error "$CLIENT" --connect "$SOCK" --replay 4 --seed abc

# One round trip: serve GK, replay a checked trace, SIGINT-drain. The
# arguments are VAR=value settings both tools run with.
round_trip() {
  rm -f "$SOCK"
  env "$@" "$SERVE" --listen "$SOCK" --filter sym=GK >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!

  for _ in $(seq 1 300); do
    [ -S "$SOCK" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "serve_roundtrip: server exited before binding" >&2
      cat "$SERVE_LOG" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ ! -S "$SOCK" ]; then
    echo "serve_roundtrip: socket never appeared" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi

  # Zero parity diffs and zero non-ok responses, or the replay exits 1.
  env "$@" "$CLIENT" --connect "$SOCK" --filter sym=GK --replay 32 --check \
      --require-ok

  # Graceful drain: SIGINT must flush everything and exit 0.
  kill -INT "$SERVE_PID"
  if ! wait "$SERVE_PID"; then
    echo "serve_roundtrip: server drain exited nonzero" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  SERVE_PID=
}

round_trip

SERVE_LOG="$DIR/serve_out_of_core.log"
rm -rf "$DIR/cache"
round_trip EMOGI_DATA_DIR="$FIXTURES" EMOGI_CACHE_DIR="$DIR/cache" \
           EMOGI_MEMORY_BUDGET=1M EMOGI_PAGED_CSR=1
if ! grep -q "chunked build + cached, paged" "$SERVE_LOG"; then
  echo "serve_roundtrip: out-of-core server did not build a chunked," \
       "paged cache" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi

echo "serve_roundtrip: OK"
