#!/usr/bin/env bash
# End-to-end smoke over the distributed tuning plane: boot
# rafiki_tune_master (TCP bus + shared parameter server), let it spawn two
# rafiki_tune_worker processes over loopback, SIGKILL one worker mid-study,
# and require that the supervisor restarted it, the study ran to
# completion, and the trial ledger balanced exactly
# (proposed == completed + lost, active == 0) — the paper's §6.3 failure
# model exercised across real process boundaries.
#
# Usage: scripts/smoke_tune.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

master="$build_dir/examples/rafiki_tune_master"
worker="$build_dir/examples/rafiki_tune_worker"
for bin in "$master" "$worker"; do
  if [[ ! -x "$bin" ]]; then
    echo "missing binary: $bin (build the repo first)" >&2
    exit 1
  fi
done

log="$(mktemp)"
ckpt_dir="$(mktemp -d)"
master_pid=""
cleanup() {
  # Kill by exact PID only: pkill -f would match this script's own cmdline.
  if [[ -n "$master_pid" ]] && kill -0 "$master_pid" 2>/dev/null; then
    kill -KILL "$master_pid" 2>/dev/null || true
  fi
  rm -rf "$log" "$ckpt_dir"
}
trap cleanup EXIT

# Long trials (1000 surrogate epochs, early stop effectively off) keep each
# trial running for about 0.3 s and the study for 2-4 s on a 4-core host
# (0.9 s without the per-event checkpoint); a checkpoint every event means
# a master restart (not exercised here) could resume. The bus picks an
# ephemeral port; workers learn it from argv.
"$master" --study=smoke --workers=2 --trials=16 --max-epochs=1000 \
  --patience=1000 --checkpoint-every=1 --checkpoint-dir="$ckpt_dir" \
  >"$log" 2>&1 &
master_pid=$!

# Wait for both worker processes to be spawned and capture the victim's pid.
victim_pid=""
for _ in $(seq 1 150); do
  if ! kill -0 "$master_pid" 2>/dev/null; then
    echo "master exited during startup:" >&2
    cat "$log" >&2
    exit 1
  fi
  if grep -q '^spawned worker=w1 pid=' "$log"; then
    victim_pid="$(sed -n 's/^spawned worker=w1 pid=\([0-9]*\)$/\1/p' "$log")"
    break
  fi
  sleep 0.1
done
if [[ -z "$victim_pid" ]]; then
  echo "workers never spawned:" >&2
  cat "$log" >&2
  exit 1
fi
echo "smoke: master pid=$master_pid victim worker=w1 pid=$victim_pid"

# Wait until the master reports both workers mid-trial, then kill w1 the
# way a lost node would die.
for _ in $(seq 1 150); do
  grep -q '^progress .* active=2$' "$log" && break
  sleep 0.1
done
if ! grep -q '^progress .* active=2$' "$log"; then
  echo "master never reported both workers mid-trial:" >&2
  cat "$log" >&2
  exit 1
fi
kill -KILL "$victim_pid" 2>/dev/null || {
  echo "victim already gone before the kill; study too fast for the smoke" >&2
  cat "$log" >&2
  exit 1
}
echo "smoke: killed worker w1 (pid $victim_pid) mid-study"

# The master must finish on its own: supervisor restarts w1, the lost trial
# is re-proposed or written off, and the run drains cleanly.
for _ in $(seq 1 1200); do
  kill -0 "$master_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$master_pid" 2>/dev/null; then
  echo "master did not finish within the deadline:" >&2
  cat "$log" >&2
  exit 1
fi
wait "$master_pid" || {
  echo "master exited non-zero:" >&2
  cat "$log" >&2
  exit 1
}
master_pid=""

# The supervisor must have observed the SIGKILL and respawned w1.
if ! grep -q '^restarted worker=w1 ' "$log"; then
  echo "supervisor never restarted the killed worker:" >&2
  cat "$log" >&2
  exit 1
fi
restarts="$(sed -n 's/^worker=w1 restarts=\([0-9]*\)$/\1/p' "$log")"
if [[ -z "$restarts" || "$restarts" -lt 1 ]]; then
  echo "final accounting shows no restart for w1: '$restarts'" >&2
  cat "$log" >&2
  exit 1
fi

# The ledger must balance exactly: every proposed trial is either completed
# or written off as lost, with nothing still active.
if ! grep -q '^ledger .* balanced=1$' "$log"; then
  echo "trial ledger did not balance:" >&2
  cat "$log" >&2
  exit 1
fi
# The kill landed mid-trial: the victim's trial was written off.
lost="$(sed -n 's/^ledger .* lost=\([0-9]*\) .*$/\1/p' "$log")"
if [[ -z "$lost" || "$lost" -lt 1 ]]; then
  echo "the kill lost no trial (lost='$lost'); it missed the study:" >&2
  cat "$log" >&2
  exit 1
fi
if ! grep -q '^trials=' "$log"; then
  echo "missing final trials line:" >&2
  cat "$log" >&2
  exit 1
fi
grep '^ledger ' "$log"
grep '^trials=' "$log"
echo "smoke: OK (w1 restarts=$restarts)"
