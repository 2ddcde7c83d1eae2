#!/usr/bin/env bash
# End-to-end exercise of `ios_opt daemon` + `ios_opt fire`: flag checks
# (a negative --max-line-bytes, an unknown flag and other bad values each
# exit 2, naming the flag or option), then three scenarios:
#
#   1. Plain serving: boot the daemon on an ephemeral loopback port, fire a
#      synthetic trace at it, require every request to come back with a
#      finite p99, then SIGTERM and require a clean graceful drain (exit 0,
#      completed == admitted).
#   2. SLO serving under a load shift: boot with a per-model SLO and the
#      shed policy enabled, fire a quiet trace (zero sheds required), then
#      a phased quiet->burst trace that overwhelms the two workers (sheds
#      required), and require the SIGTERM drain summary to account for
#      every admitted request as completed + shed.
#   3. Chaos: boot with chaos verbs + the executor watchdog enabled, fire a
#      trace through a client that injects seeded torn writes and stalls
#      while one worker is wedged mid-trace (stall_worker). Require zero
#      lost admitted requests (every request answered, finite p99), the
#      watchdog to kill and route around the stuck worker, and the drained
#      daemon to balance (completed == admitted, nothing shed or rejected,
#      at least one request requeued) and write a valid stats JSON
#      artifact.
#
# Registered with CTest under the `integration` label; also runnable by
# hand:
#
#   tests/e2e_daemon.sh build/ios_opt
set -euo pipefail

IOS_OPT=${1:?usage: e2e_daemon.sh <path-to-ios_opt>}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/ios_e2e_daemon.XXXXXX")
DAEMON_LOG="$WORKDIR/daemon.log"
FIRE_LOG="$WORKDIR/fire.log"
DAEMON_PID=""

cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -KILL "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "e2e_daemon: FAIL: $*" >&2
  echo "---- daemon log ----" >&2
  cat "$DAEMON_LOG" >&2 || true
  echo "---- fire log ----" >&2
  cat "$FIRE_LOG" >&2 || true
  exit 1
}

wait_for_port() {
  PORT=""
  for _ in $(seq 1 150); do
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
      "$DAEMON_LOG" | head -n 1)
    [[ -n "$PORT" ]] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died before listening"
    sleep 0.2
  done
  fail "daemon never printed its listening port"
}

# ---------------------------------------------------------------------------
# Flag check: a negative --max-line-bytes is rejected by name before the
# daemon binds (parsed unsigned, "-1" would wrap to an unbounded line limit
# and the daemon would serve until the timeout stopped it: exit 124).
BAD_STATUS=0
timeout 10 "$IOS_OPT" daemon --port 0 --max-line-bytes -1 \
  >"$DAEMON_LOG" 2>&1 || BAD_STATUS=$?
[[ "$BAD_STATUS" -eq 2 ]] \
  || fail "daemon --max-line-bytes -1 exited $BAD_STATUS, want 2"
grep -q -- "--max-line-bytes" "$DAEMON_LOG" \
  || fail "the --max-line-bytes rejection does not name the flag"
echo "e2e_daemon: --max-line-bytes -1 rejected"

# More values rejected by name before anything binds or serves, each of
# which once ran: an unknown flag (the daemon served with the default
# worker count), a switch that is not 0|1 (shedding silently off), a zero
# watchdog interval (the watchdog thread spun a core), a NaN queue delay
# (partial batches never flushed, and the summary counted unserved
# requests as served), a non-0|1 --print on another command, and a number
# token that is not all number, as a flag or in a config file (--batch 2-1
# optimized batch 2; {"workers": 2-1} started 2 workers).
expect_rejected() {
  local name=$1
  shift
  local status=0
  timeout 10 "$IOS_OPT" "$@" >"$DAEMON_LOG" 2>&1 || status=$?
  [[ "$status" -eq 2 ]] || fail "ios_opt $* exited $status, want 2"
  grep -q -- "$name" "$DAEMON_LOG" \
    || fail "the rejection of ios_opt $* does not name $name"
}
expect_rejected "--worker" daemon --port 0 --worker 2
expect_rejected "--shed" daemon --port 0 --shed true
expect_rejected "watchdog[-_]interval[-_]us" \
  daemon --port 0 --stuck-grace-us 1000 --watchdog-interval-us 0
expect_rejected "--max-delay-us" \
  serve --models fig3 --requests 10 --max-delay-us nan
expect_rejected "--print" optimize --model fig3 --print true
expect_rejected "--batch" optimize --model fig3 --batch 2-1
printf '{"workers": 2-1}\n' >"$WORKDIR/bad_number.json"
expect_rejected "invalid number" \
  daemon --port 0 --config "$WORKDIR/bad_number.json"
echo "e2e_daemon: unknown flags and bad values rejected"

# ---------------------------------------------------------------------------
# Scenario 1: plain serving + graceful drain.
#
# fig3 is the didactic two-block graph: its recipes optimize in
# milliseconds, so prewarm keeps the test fast. A small time scale still
# exercises the executor sleep path.
"$IOS_OPT" daemon --port 0 --models fig3 --device v100 --workers 2 \
  --batch-sizes 1,2,4 --max-delay-us 2000 --time-scale 0.05 \
  >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!
wait_for_port
echo "e2e_daemon: daemon up on port $PORT (pid $DAEMON_PID)"

# Fire a trace and require a fully-served run with a finite p99.
"$IOS_OPT" fire --port "$PORT" --models fig3 --requests 120 --rate 2000 \
  --seed 7 >"$FIRE_LOG" 2>&1 || fail "fire exited nonzero"
grep -q " 120 ok, 0 shed, 0 errors" "$FIRE_LOG" \
  || fail "not all 120 requests served"
P99=$(sed -n 's/.*p99 \([0-9.][0-9.]*\).*/\1/p' "$FIRE_LOG" | head -n 1)
[[ -n "$P99" ]] || fail "no p99 in fire output (nan/inf?)"
echo "e2e_daemon: 120/120 served, p99 ${P99} us"

# Graceful drain on SIGTERM: exit 0 and a drain summary accounting for
# every admitted request.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
[[ "$DAEMON_STATUS" -eq 0 ]] || fail "daemon exited $DAEMON_STATUS on SIGTERM"
grep -q "drained" "$DAEMON_LOG" || fail "no drain summary in daemon log"
grep -q "120 admitted, 120 completed, 0 shed, 0 rejected" "$DAEMON_LOG" \
  || fail "drain summary does not account for all 120 requests"
DAEMON_PID=""
echo "e2e_daemon: scenario 1 (plain) PASS"

# ---------------------------------------------------------------------------
# Scenario 2: SLO + shed under a quiet->burst load shift.
#
# fig3's singleton service is ~15.4 ms of engine time, so a 40 ms SLO
# leaves ~25 ms of tolerable backlog: a 30 req/s trickle never sheds, an
# 8000 req/s burst (far past the two workers' capacity) must. The short
# 500 us flush deadline keeps partial batches reaching the poll-time shed
# check during the burst.
"$IOS_OPT" daemon --port 0 --models fig3 --device v100 --workers 2 \
  --batch-sizes 1,2,4 --max-delay-us 500 --time-scale 0.05 \
  --slo fig3=40000 --shed 1 >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!
wait_for_port
echo "e2e_daemon: slo daemon up on port $PORT (pid $DAEMON_PID)"

# Quiet phase: every request served, nothing shed.
"$IOS_OPT" fire --port "$PORT" --models fig3 --requests 30 --rate 30 \
  --seed 3 >"$FIRE_LOG" 2>&1 || fail "quiet fire exited nonzero"
grep -q " 30 ok, 0 shed, 0 errors" "$FIRE_LOG" \
  || fail "quiet trace shed or dropped requests"
echo "e2e_daemon: quiet phase 30/30 served, 0 shed"

# Burst phase (phased trace: trickle then overload): the shed policy must
# engage, everything not shed must be answered, and the p99 of the served
# requests must stay finite.
"$IOS_OPT" fire --port "$PORT" --models fig3 --phases "20@30,300@8000" \
  --seed 5 >"$FIRE_LOG" 2>&1 || fail "burst fire exited nonzero"
BURST_OK=$(sed -n 's/^ *\([0-9][0-9]*\) ok, .*/\1/p' "$FIRE_LOG" | head -n 1)
BURST_SHED=$(sed -n 's/.* \([0-9][0-9]*\) shed, .*/\1/p' "$FIRE_LOG" | head -n 1)
[[ -n "$BURST_OK" && -n "$BURST_SHED" ]] || fail "no ok/shed counts in burst"
grep -q " 0 errors" "$FIRE_LOG" || fail "burst trace had hard errors"
[[ "$BURST_SHED" -gt 0 ]] || fail "burst trace shed nothing (shed policy idle)"
[[ $((BURST_OK + BURST_SHED)) -eq 320 ]] \
  || fail "burst ok ($BURST_OK) + shed ($BURST_SHED) != 320"
P99=$(sed -n 's/.*p99 \([0-9.][0-9.]*\).*/\1/p' "$FIRE_LOG" | head -n 1)
[[ -n "$P99" ]] || fail "no p99 in burst fire output (nan/inf?)"
echo "e2e_daemon: burst phase $BURST_OK served + $BURST_SHED shed, p99 ${P99} us"

# Clean drain: admitted == completed + shed.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
[[ "$DAEMON_STATUS" -eq 0 ]] || fail "slo daemon exited $DAEMON_STATUS on SIGTERM"
TOTAL_SHED=$((BURST_SHED))
TOTAL_OK=$((30 + BURST_OK))
grep -q "350 admitted, $TOTAL_OK completed, $TOTAL_SHED shed, 0 rejected" \
  "$DAEMON_LOG" || fail "slo drain summary does not balance admitted"
DAEMON_PID=""
echo "e2e_daemon: scenario 2 (slo/shed) PASS"

# ---------------------------------------------------------------------------
# Scenario 3: chaos — torn writes + a wedged worker mid-trace.
#
# The client injects seeded faults (torn writes, read stalls) and retries
# on a per-request deadline; the daemon's watchdog (50 ms grace) must kill
# the worker we wedge with stall_worker and requeue its in-flight batch.
# Fixed seeds make the fault sequence deterministic.
STATS_JSON="$WORKDIR/daemon_stats.json"
"$IOS_OPT" daemon --port 0 --models fig3 --device v100 --workers 2 \
  --batch-sizes 1,2,4 --max-delay-us 2000 --time-scale 0.05 \
  --chaos 1 --stuck-grace-us 50000 --watchdog-interval-us 10000 \
  --idle-timeout-us 30000000 --max-line-bytes 65536 \
  --stats-json "$STATS_JSON" >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!
wait_for_port
echo "e2e_daemon: chaos daemon up on port $PORT (pid $DAEMON_PID)"

# Fire in the background so the worker can be wedged mid-trace.
"$IOS_OPT" fire --port "$PORT" --models fig3 --requests 150 --rate 300 \
  --seed 11 --deadline-us 400000 --retries 4 --backoff-us 10000 \
  --fault-seed 23 --torn-prob 0.35 --stall-prob 0.15 --stall-us 300 \
  >"$FIRE_LOG" 2>&1 &
FIRE_PID=$!

# Wedge worker 0 for 5 s (100x the watchdog grace) while the trace runs.
sleep 0.1
"$IOS_OPT" admin --port "$PORT" --cmd stall_worker --worker 0 \
  --stall-us 5000000 >"$WORKDIR/admin.log" 2>&1 \
  || fail "stall_worker admin call failed"

FIRE_STATUS=0
wait "$FIRE_PID" || FIRE_STATUS=$?
[[ "$FIRE_STATUS" -eq 0 ]] || fail "chaos fire exited $FIRE_STATUS"
# Zero lost admitted requests: every request answered despite the faults.
grep -q " 150 ok, 0 shed, 0 errors" "$FIRE_LOG" \
  || fail "chaos trace lost requests"
P99=$(sed -n 's/.*p99 \([0-9.][0-9.]*\).*/\1/p' "$FIRE_LOG" | head -n 1)
[[ -n "$P99" ]] || fail "no finite p99 in chaos fire output"
grep -q "resilience" "$FIRE_LOG" || fail "no resilience summary in fire output"
echo "e2e_daemon: chaos phase 150/150 served, p99 ${P99} us"

# The watchdog must have killed the wedged worker and requeued its batch.
"$IOS_OPT" admin --port "$PORT" --cmd health >"$WORKDIR/health.json" 2>&1 \
  || fail "health probe failed"
grep -q '"worker_deaths":1' "$WORKDIR/health.json" \
  || fail "watchdog did not kill the wedged worker: $(cat "$WORKDIR/health.json")"
grep -q '"dead_workers":\[0\]' "$WORKDIR/health.json" \
  || fail "health does not list worker 0 dead"
grep -q "watchdog killed stuck worker 0" "$DAEMON_LOG" \
  || fail "no watchdog kill note in daemon log"

# Clean drain, with the stats JSON artifact written and valid.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
[[ "$DAEMON_STATUS" -eq 0 ]] || fail "chaos daemon exited $DAEMON_STATUS"
grep -q "drained" "$DAEMON_LOG" || fail "no drain summary in chaos daemon log"
grep -q "1 worker deaths" "$DAEMON_LOG" \
  || fail "drain summary missing the worker death"
# Client retries may admit a request twice; each admission is answered.
ADMITTED=$(sed -n 's/.* \([0-9][0-9]*\) admitted, .*/\1/p' "$DAEMON_LOG" \
  | head -n 1)
[[ -n "$ADMITTED" && "$ADMITTED" -ge 150 ]] \
  || fail "chaos drain summary admitted '$ADMITTED' < 150"
grep -q "$ADMITTED admitted, $ADMITTED completed, 0 shed, 0 rejected" \
  "$DAEMON_LOG" || fail "chaos drain summary does not balance admitted"
[[ -s "$STATS_JSON" ]] || fail "daemon stats JSON was not written"
grep -q '"worker_deaths":1' "$STATS_JSON" \
  || fail "stats JSON missing worker_deaths: $(cat "$STATS_JSON")"
REQUEUED=$(sed -n 's/.*"requeued_requests":\([0-9][0-9]*\).*/\1/p' \
  "$STATS_JSON")
[[ -n "$REQUEUED" && "$REQUEUED" -ge 1 ]] \
  || fail "stats JSON requeued_requests '$REQUEUED' < 1: $(cat "$STATS_JSON")"
echo "e2e_daemon: chaos drain $ADMITTED admitted = completed, $REQUEUED requeued"
# Export the artifact for CI upload when a destination is provided.
if [[ -n "${E2E_STATS_OUT:-}" ]]; then
  cp "$STATS_JSON" "$E2E_STATS_OUT"
fi
DAEMON_PID=""
echo "e2e_daemon: scenario 3 (chaos) PASS"

echo "e2e_daemon: PASS"
