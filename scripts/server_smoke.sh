#!/usr/bin/env bash
# Server smoke test: boot lindb_server, drive it with lindb_client over TCP,
# diff the output against the committed golden file, check the introspection
# surfaces (/metrics, system.queries, .analyze), and verify the server shuts
# down cleanly on SIGTERM.
#
# Usage: scripts/server_smoke.sh [build_dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/examples/lindb_server"
CLIENT="$BUILD_DIR/examples/lindb_client"
GOLDEN="scripts/server_smoke_expected.txt"

[[ -x "$SERVER" && -x "$CLIENT" ]] || {
  echo "build examples first: cmake --build $BUILD_DIR -j" >&2
  exit 1
}

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$SERVER" --port 0 >"$WORK/server.out" 2>"$WORK/server.err" &
SERVER_PID=$!

# The server prints "PORT <n>" once it is listening.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(awk '/^PORT /{print $2; exit}' "$WORK/server.out" 2>/dev/null || true)"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.err" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "server never reported its port" >&2; exit 1; }

"$CLIENT" --port "$PORT" --file scripts/server_smoke_queries.sql >"$WORK/client.out"

if [[ "${UPDATE_GOLDEN:-0}" == "1" ]]; then
  cp "$WORK/client.out" "$GOLDEN"
  echo "updated $GOLDEN"
fi
diff -u "$GOLDEN" "$WORK/client.out" || {
  echo "server smoke output diverged from $GOLDEN" >&2
  exit 1
}

# Introspection: the same port must answer a Prometheus scrape over HTTP...
curl -sS --max-time 10 "http://127.0.0.1:$PORT/metrics" >"$WORK/metrics.out"
[[ -s "$WORK/metrics.out" ]] || { echo "/metrics scrape returned nothing" >&2; exit 1; }
grep -q '^# TYPE ' "$WORK/metrics.out" || {
  echo "/metrics is not Prometheus text exposition:" >&2
  head -5 "$WORK/metrics.out" >&2
  exit 1
}
grep -q '^server_requests ' "$WORK/metrics.out" || {
  echo "/metrics is missing the server_requests counter" >&2
  exit 1
}

# ...and system.queries must already hold the statements the golden run sent.
echo "SELECT count(*) FROM system.queries;" | "$CLIENT" --port "$PORT" >"$WORK/sysq.out"
grep -q '^OK 1 1$' "$WORK/sysq.out" || {
  echo "system.queries scan failed:" >&2
  cat "$WORK/sysq.out" >&2
  exit 1
}
SYSQ_COUNT="$(sed -n '3p' "$WORK/sysq.out")"
[[ "$SYSQ_COUNT" =~ ^[0-9]+$ && "$SYSQ_COUNT" -gt 0 ]] || {
  echo "system.queries is empty after the golden run (count='$SYSQ_COUNT')" >&2
  exit 1
}

# ...and .analyze must run EXPLAIN ANALYZE on the live server (under admission
# and the statement lock, like any SELECT) and render per-node actuals.
echo ".analyze SELECT count(*) FROM system.queries" | "$CLIENT" --port "$PORT" >"$WORK/analyze.out"
grep -q '^OK [0-9][0-9]* 1$' "$WORK/analyze.out" && grep -q 'actual rows=' "$WORK/analyze.out" || {
  echo ".analyze over TCP failed:" >&2
  cat "$WORK/analyze.out" >&2
  exit 1
}
echo "introspection smoke: /metrics OK, system.queries has $SYSQ_COUNT rows, .analyze OK"

# Clean shutdown: SIGTERM must terminate the process promptly with status 0.
kill -TERM "$SERVER_PID"
STATUS=0
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID" || STATUS=$?
    SERVER_PID=""
    break
  fi
  sleep 0.1
done
[[ -z "$SERVER_PID" ]] || { echo "server did not exit on SIGTERM" >&2; exit 1; }
[[ "$STATUS" -eq 0 ]] || { echo "server exited with status $STATUS" >&2; exit 1; }

echo "server smoke: OK"
