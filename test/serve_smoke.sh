#!/usr/bin/env bash
# End-to-end crash-recovery smoke for mmsynthd.
#
# Phase A runs a reference job to completion on an undisturbed daemon
# and requires `mmsynth synth` with the same flags to report its power
# and generation count.
# Phase B submits the same job (same options, same id) plus a filler job
# and one invalid spec (which must be rejected with MM0xx diagnostics),
# SIGKILLs the daemon as soon as the job's first checkpoint hits disk,
# restarts it on the same state directory and lets recovery finish the
# job.  The two result.sexp files — power and fitness encoded bit-exactly
# — must be byte-identical.
#
# Phase C runs 60 tiny jobs one after another on a fresh daemon and
# bounds its peak RSS (VmHWM): a daemon must hold parsed specs, and the
# per-mode caches their evaluations fill, only for jobs that can still
# run.  One that kept them for every finished job ends far above it.
#
# Run from the repository root; binaries must already be built
# (`dune build bin`).  Exits non-zero on the first failed assertion.
set -euo pipefail

BIN=_build/default/bin
MMSYNTH="$BIN/mmsynth.exe"
MMSYNTHD="$BIN/mmsynthd.exe"
[ -x "$MMSYNTH" ] && [ -x "$MMSYNTHD" ] || {
  echo "serve_smoke: build bin/ first (dune build bin)"; exit 1; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# The job the crash lands on: big enough that the first checkpoint
# always precedes completion, with a seed so both phases share one
# trajectory.  It runs the island-model GA so the crash/recovery path
# exercises per-island snapshot state, not just the single engine.
SYNTH_FLAGS=(--generations 60 --population 40 --seed 3
             --islands 3 --migration-every 5 --migrants 2)

"$MMSYNTH" export mul6 > "$WORK/mul6.mms"
"$MMSYNTH" export mul3 > "$WORK/mul3.mms"
echo '(spec (name broken))' > "$WORK/invalid.mms"

start_daemon() { # state_dir -> sets DPID, waits for the socket
  rm -f "$SOCK" # a SIGKILLed daemon leaves its socket file behind
  "$MMSYNTHD" --socket "$SOCK" --state-dir "$1" --checkpoint-every 3 &
  DPID=$!
  for _ in $(seq 1 250); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DPID" 2>/dev/null || { echo "daemon died on startup"; exit 1; }
    sleep 0.02
  done
  echo "daemon socket never appeared"; exit 1
}

shutdown_daemon() {
  "$MMSYNTH" client shutdown --socket "$SOCK"
  wait "$DPID" || true
  DPID=""
}

# --- phase A: reference run, never interrupted -------------------------------
SOCK="$WORK/ref.sock"
start_daemon "$WORK/state-ref"
"$MMSYNTH" client submit "$WORK/mul6.mms" --socket "$SOCK" "${SYNTH_FLAGS[@]}"
"$MMSYNTH" client watch job-0001 --socket "$SOCK" > /dev/null
shutdown_daemon
grep -q completed "$WORK/state-ref/jobs/job-0001/job.sexp" || {
  echo "reference job did not complete"; exit 1; }

# The daemon maps a job's options to a synthesis configuration through
# the same function the CLI maps its flags through, so `mmsynth synth`
# with the same flags must find the reference job's design after the
# same number of generations.  The CLI prints the power to 4 significant
# digits; result.sexp holds it exactly (in W), so it is printed here the
# way the CLI's report prints it.
RESULT="$WORK/state-ref/jobs/job-0001/result.sexp"
DAEMON=$(awk '
  match($0, /\(power [^)]*\)/) {
    w = substr($0, RSTART + 7, RLENGTH - 8) + 0
    if (w < 1e-3) p = sprintf("%.4gµW", w * 1e6)
    else if (w < 1) p = sprintf("%.4gmW", w * 1e3)
    else p = sprintf("%.4gW", w) }
  match($0, /\(generations [0-9]*\)/) { g = substr($0, RSTART + 13, RLENGTH - 14) }
  END { if (p != "" && g != "") print p ", " g " generations" }' "$RESULT")
CLI=$("$MMSYNTH" synth "file:$WORK/mul6.mms" "${SYNTH_FLAGS[@]}" | awk '
  /^average power \(true Ψ\): / { p = $NF }
  /^GA: / { g = $2 }
  END { if (p != "" && g != "") print p ", " g " generations" }')
[ -n "$DAEMON" ] && [ "$DAEMON" = "$CLI" ] || {
  echo "daemon reference job ($DAEMON) differs from mmsynth synth with the" \
    "same flags ($CLI)"; exit 1; }
echo "mmsynth synth agrees with the daemon's reference job: $CLI"

# --- phase B: same submission, daemon SIGKILLed mid-run ----------------------
SOCK="$WORK/crash.sock"
start_daemon "$WORK/state-crash"

"$MMSYNTH" client submit "$WORK/mul6.mms" --socket "$SOCK" "${SYNTH_FLAGS[@]}"
"$MMSYNTH" client submit "$WORK/mul3.mms" --socket "$SOCK" --seed 1

# The invalid spec must be refused at admission, with MM0xx diagnostics,
# without ever creating a job.
set +e
REJECT=$("$MMSYNTH" client submit "$WORK/invalid.mms" --socket "$SOCK" 2>&1)
STATUS=$?
set -e
[ "$STATUS" -ne 0 ] || { echo "invalid spec was admitted"; exit 1; }
echo "$REJECT" | grep -q "MM0" || {
  echo "rejection carried no MM0xx diagnostic:"; echo "$REJECT"; exit 1; }
[ ! -e "$WORK/state-crash/jobs/job-0003" ] || {
  echo "rejected spec left a job directory behind"; exit 1; }

# kill -9 the instant job-0001's first snapshot exists: the job is
# mid-run, and the state directory is whatever the crash left.
CKPT="$WORK/state-crash/jobs/job-0001/checkpoint.snap"
for _ in $(seq 1 500); do
  [ -f "$CKPT" ] && break
  sleep 0.02
done
[ -f "$CKPT" ] || { echo "no checkpoint ever appeared"; exit 1; }
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=""
grep -q completed "$WORK/state-crash/jobs/job-0001/job.sexp" && {
  echo "kill landed after completion; nothing was recovered"; exit 1; }
echo "daemon SIGKILLed with job-0001 in flight"

# Restart on the same state directory: rehydration must resume both
# in-flight jobs and finish them without any client intervention.
start_daemon "$WORK/state-crash"
"$MMSYNTH" client watch job-0001 --socket "$SOCK" > /dev/null
"$MMSYNTH" client watch job-0002 --socket "$SOCK" > /dev/null
shutdown_daemon

for id in job-0001 job-0002; do
  grep -q completed "$WORK/state-crash/jobs/$id/job.sexp" || {
    echo "$id did not complete after recovery"; exit 1; }
done

# The contract: recovery reproduces the uninterrupted run bit for bit.
diff "$WORK/state-ref/jobs/job-0001/result.sexp" \
     "$WORK/state-crash/jobs/job-0001/result.sexp" || {
  echo "recovered result diverged from the reference run"; exit 1; }

echo "recovered result is bit-identical to the reference"

# --- phase C: memory stays bounded across many finished jobs ----------------
# Measured on Linux x86-64: about 36 MB here, about 530 MB for a daemon
# that keeps every finished job's caches.
HWM_BOUND_KB=131072
SOCK="$WORK/mem.sock"
start_daemon "$WORK/state-mem"
for i in $(seq 1 60); do
  "$MMSYNTH" client submit "$WORK/mul3.mms" --socket "$SOCK" \
    --generations 10 --population 16 --seed "$i" > /dev/null
  "$MMSYNTH" client watch "$(printf 'job-%04d' "$i")" --socket "$SOCK" > /dev/null
done
if [ -r "/proc/$DPID/status" ]; then
  HWM_KB=$(awk '/^VmHWM:/ { print $2 }' "/proc/$DPID/status")
else
  HWM_KB="" # no procfs: the bound cannot be read on this platform
fi
shutdown_daemon
grep -q completed "$WORK/state-mem/jobs/job-0060/job.sexp" || {
  echo "job-0060 did not complete"; exit 1; }
if [ -n "$HWM_KB" ]; then
  echo "daemon peak RSS after 60 jobs: $HWM_KB kB (bound $HWM_BOUND_KB kB)"
  [ "$HWM_KB" -le "$HWM_BOUND_KB" ] || {
    echo "daemon peak RSS grew past the bound: finished jobs are retained"; exit 1; }
else
  echo "no /proc/<pid>/status: peak RSS bound not checked"
fi

echo "serve_smoke: OK — recovery bit-identical, daemon memory bounded"
