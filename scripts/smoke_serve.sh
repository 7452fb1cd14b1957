#!/usr/bin/env bash
# End-to-end smoke over real TCP: boot rafiki_serve, point rafiki_loadgen at
# the auto-deployed inference job's metrics route, then storm the query
# route with 256 closed-loop connections against 2 event loops — failing on
# any transport error or unexpected status — and finally SIGTERM the
# server, require a clean drain (the "served requests=..." accounting line)
# and an observed in-flight peak above the event-loop count (proof the
# continuation path, not the loops, carried the concurrency).
#
# Usage: scripts/smoke_serve.sh [build-dir] [port]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
port="${2:-18080}"

serve="$build_dir/examples/rafiki_serve"
loadgen="$build_dir/examples/rafiki_loadgen"
for bin in "$serve" "$loadgen"; do
  if [[ ! -x "$bin" ]]; then
    echo "missing binary: $bin (build the repo first)" >&2
    exit 1
  fi
done

log="$(mktemp)"
server_pid=""
cleanup() {
  # Kill by exact PID only: pkill -f would match this script's own cmdline.
  if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill -KILL "$server_pid" 2>/dev/null || true
  fi
  rm -f "$log"
}
trap cleanup EXIT

# workers=2 on purpose: the storm below must sustain far more concurrent
# queries than event loops. max-inflight is lifted so the admission cap is
# not what bounds the storm; tau-ms is generous so most queries beat the
# queue deadline on a loaded CI box (stragglers get an orderly 504, which
# is not an error).
"$serve" --port="$port" --workers=2 --max-inflight=1024 \
  --tau-ms=500 >"$log" 2>&1 &
server_pid=$!

# Wait for the machine-parseable startup lines (rafiki_serve flushes them).
infer_job=""
for _ in $(seq 1 100); do
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "server exited during startup:" >&2
    cat "$log" >&2
    exit 1
  fi
  if grep -q '^listening port=' "$log"; then
    infer_job="$(sed -n 's/^infer_job=\([^ ]*\).*/\1/p' "$log")"
    break
  fi
  sleep 0.1
done
if [[ -z "$infer_job" ]]; then
  echo "server never became ready:" >&2
  cat "$log" >&2
  exit 1
fi
echo "smoke: server pid=$server_pid port=$port infer_job=$infer_job"

"$loadgen" --port="$port" --target="/jobs/$infer_job/metrics" \
  --duration=2 --rate=300 --period=2 --connections=2 --fail-on-error

# High-concurrency storm: 256 closed-loop connections POSTing real queries
# through the continuation path, on 2 event loops.
"$loadgen" --port="$port" --method=POST \
  --target="/jobs/$infer_job/query" --body="0,1,0,0" \
  --closed --connections=256 --duration=2 --tau=1 --fail-on-error

# Graceful drain: TERM the exact PID and require the accounting line.
kill -TERM "$server_pid"
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "server did not exit after SIGTERM:" >&2
  cat "$log" >&2
  exit 1
fi
wait "$server_pid" || {
  echo "server exited non-zero:" >&2
  cat "$log" >&2
  exit 1
}
server_pid=""
if ! grep -q '^served requests=' "$log"; then
  echo "missing final accounting line:" >&2
  cat "$log" >&2
  exit 1
fi
grep '^served requests=' "$log"
grep '^job metrics ' "$log" || true

# The continuation path must have carried more concurrent requests than the
# two event loops ever could if each held its request until answered.
peak="$(sed -n 's/.*inflight_peak=\([0-9]*\).*/\1/p' "$log" | head -1)"
if [[ -z "$peak" || "$peak" -le 2 ]]; then
  echo "continuation path not exercised: inflight_peak='$peak' (expected > 2)" >&2
  cat "$log" >&2
  exit 1
fi
echo "smoke: OK (inflight_peak=$peak)"

# --- RL policy storm -------------------------------------------------------
# Boot a second server under the actor-critic scheduler and hit it with an
# open-loop sine (the Figure 12 load shape) at a tight-ish tau so some
# queries expire. On drain, the accounting must still close exactly
# ("conservation ... ok=1") and the policy must actually have learned
# (nonzero learn_steps) — the live counterpart of the runtime's
# exactly-once expiry regression test.
rl_port=$((port + 1))
"$serve" --port="$rl_port" --workers=2 --max-inflight=1024 \
  --tau-ms=100 --policy=rl >"$log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "rl server exited during startup:" >&2
    cat "$log" >&2
    exit 1
  fi
  grep -q '^listening port=' "$log" && break
  sleep 0.1
done
rl_job="$(sed -n 's/^infer_job=\([^ ]*\).*/\1/p' "$log")"
if [[ -z "$rl_job" ]]; then
  echo "rl server never became ready:" >&2
  cat "$log" >&2
  exit 1
fi
if ! grep -q '^infer_job=.* policy=rl' "$log"; then
  echo "rl server did not report policy=rl:" >&2
  cat "$log" >&2
  exit 1
fi
echo "smoke: rl server pid=$server_pid port=$rl_port infer_job=$rl_job"

"$loadgen" --port="$rl_port" --method=POST \
  --target="/jobs/$rl_job/query" --body="0,1,0,0" \
  --rate=400 --period=2 --duration=3 --connections=8 --tau=0.1

kill -TERM "$server_pid"
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
wait "$server_pid" || {
  echo "rl server exited non-zero:" >&2
  cat "$log" >&2
  exit 1
}
server_pid=""
grep '^job metrics ' "$log" || true
if ! grep -q '^conservation .* ok=1$' "$log"; then
  echo "rl drain accounting did not close:" >&2
  cat "$log" >&2
  exit 1
fi
grep '^conservation ' "$log"
learned="$(sed -n 's/.* learn_steps=\([0-9]*\).*/\1/p' "$log" | head -1)"
if [[ -z "$learned" || "$learned" -eq 0 ]]; then
  echo "rl policy recorded no learn steps: '$learned'" >&2
  cat "$log" >&2
  exit 1
fi
echo "smoke: OK (rl learn_steps=$learned)"

# --- Replica autoscale storm -----------------------------------------------
# Boot a third server whose job may grow to 4 dispatcher replicas
# (--autoscale=1 starts at one and lets the ReplicaController scale on
# queue pressure). The 256-connection closed-loop storm keeps the submit
# queue well above the scale-up threshold, so the controller must add
# replicas during the run; on drain the accounting must still close
# exactly ("conservation ... ok=1") across every add/remove, and the
# reported replica peak must exceed 1 (proof the storm scaled the plane,
# not just rode the single seed replica).
replica_port=$((port + 2))
"$serve" --port="$replica_port" --workers=2 \
  --max-inflight=1024 --tau-ms=500 --replicas=4 --autoscale=1 \
  >"$log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "replica server exited during startup:" >&2
    cat "$log" >&2
    exit 1
  fi
  grep -q '^listening port=' "$log" && break
  sleep 0.1
done
replica_job="$(sed -n 's/^infer_job=\([^ ]*\).*/\1/p' "$log")"
if [[ -z "$replica_job" ]]; then
  echo "replica server never became ready:" >&2
  cat "$log" >&2
  exit 1
fi
if ! grep -q '^infer_job=.* replicas=4 autoscale=1' "$log"; then
  echo "replica server did not report replicas=4 autoscale=1:" >&2
  cat "$log" >&2
  exit 1
fi
echo "smoke: replica server pid=$server_pid port=$replica_port infer_job=$replica_job"

"$loadgen" --port="$replica_port" --method=POST \
  --target="/jobs/$replica_job/query" --body="0,1,0,0" \
  --closed --connections=256 --duration=3 --tau=1 --fail-on-error

kill -TERM "$server_pid"
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
wait "$server_pid" || {
  echo "replica server exited non-zero:" >&2
  cat "$log" >&2
  exit 1
}
server_pid=""
grep '^replica metrics ' "$log" || true
if ! grep -q '^conservation .* ok=1$' "$log"; then
  echo "replica drain accounting did not close:" >&2
  cat "$log" >&2
  exit 1
fi
grep '^conservation ' "$log"
replica_peak="$(sed -n 's/^replica metrics .* peak=\([0-9]*\).*/\1/p' "$log" | head -1)"
if [[ -z "$replica_peak" || "$replica_peak" -le 1 ]]; then
  echo "controller never scaled past one replica: peak='$replica_peak'" >&2
  cat "$log" >&2
  exit 1
fi
echo "smoke: OK (replica peak=$replica_peak)"
