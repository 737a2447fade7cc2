#!/usr/bin/env bash
# Tier-1 verification: the regular build + full ctest suite, an
# end-to-end observability smoke run of the CLI (metrics / trace /
# telemetry artifacts must all be valid JSON), then the concurrency
# tests rebuilt and re-run under ThreadSanitizer (BC_SANITIZE=thread)
# to catch data races the plain build cannot see.
#
# Usage: tools/tier1.sh [jobs]   (run from the repo root)

set -euo pipefail

JOBS="${1:-$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier-1: regular build + tests =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

echo "== tier-1: observability smoke run =="
CLI="$ROOT/build/tools/bayescrowd_cli"
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
"$CLI" generate --dataset corr --n 50 --d 5 --levels 8 --seed 3 \
  --out "$SMOKE/complete.csv"
"$CLI" inject --in "$SMOKE/complete.csv" --rate 0.15 --seed 3 \
  --out "$SMOKE/holes.csv"
# --alpha -1 disables modeling-phase pruning so undecided objects survive
# into the crowdsourcing rounds (the default alpha can settle everything
# during modeling, leaving the round spans / ADPLL counters unexercised).
"$CLI" run --data "$SMOKE/holes.csv" --truth "$SMOKE/complete.csv" \
  --strategy hhs --budget 20 --latency 4 --threads 4 --alpha -1 \
  --log-level warning \
  --metrics-out "$SMOKE/metrics.json" \
  --trace-out "$SMOKE/trace.json" \
  --telemetry-out "$SMOKE/telemetry.json" > /dev/null
for doc in metrics trace telemetry; do
  "$CLI" jsoncheck --in "$SMOKE/$doc.json"
done
# The trace must actually contain the round-loop spans.
grep -q '"round.select"' "$SMOKE/trace.json"
grep -q '"adpll.solve"' "$SMOKE/trace.json"
grep -q 'adpll.calls' "$SMOKE/metrics.json"

echo "== tier-1: faulted smoke run =="
# The same query through the deterministic fault injector: the run must
# terminate despite timeouts/abstains/partial batches and surface the
# recovery path in both artifacts.
"$CLI" run --data "$SMOKE/holes.csv" --truth "$SMOKE/complete.csv" \
  --strategy hhs --budget 20 --latency 4 --threads 4 --alpha -1 \
  --fault-rate 0.3 --fault-seed 11 --max-retries 3 --round-deadline 30 \
  --log-level warning \
  --metrics-out "$SMOKE/metrics_fault.json" \
  --telemetry-out "$SMOKE/telemetry_fault.json" > "$SMOKE/report_fault.txt"
"$CLI" jsoncheck --in "$SMOKE/metrics_fault.json"
"$CLI" jsoncheck --in "$SMOKE/telemetry_fault.json"
grep -q 'fault injection:' "$SMOKE/report_fault.txt"
grep -q 'fault.transient_failures' "$SMOKE/metrics_fault.json"
grep -q '"recovery"' "$SMOKE/telemetry_fault.json"
grep -q '"retries"' "$SMOKE/telemetry_fault.json"

echo "== tier-1: crash-safety smoke run (kill, corrupt, resume) =="
# Checkpointed run, then a deliberately corrupted newest snapshot: the
# resume must fall back one generation, replay the answer-log tail, and
# report itself in the telemetry ("resumed": true, recovery.* metrics).
"$CLI" run --data "$SMOKE/holes.csv" --truth "$SMOKE/complete.csv" \
  --strategy hhs --budget 20 --latency 4 --threads 4 --alpha -1 \
  --fault-rate 0.2 --answer-noise 0.1 --log-level warning \
  --checkpoint-dir "$SMOKE/ckpt" > /dev/null
ls "$SMOKE"/ckpt/ckpt-*.bin > /dev/null   # Snapshots exist.
test -s "$SMOKE/ckpt/answers.log"         # Durable answer log exists.
NEWEST="$(ls "$SMOKE"/ckpt/ckpt-*.bin | tail -1)"
truncate -s 20 "$NEWEST"                  # Corrupt the newest snapshot.
"$CLI" run --data "$SMOKE/holes.csv" --truth "$SMOKE/complete.csv" \
  --strategy hhs --budget 20 --latency 4 --threads 4 --alpha -1 \
  --fault-rate 0.2 --answer-noise 0.1 --log-level warning \
  --checkpoint-dir "$SMOKE/ckpt" --resume \
  --telemetry-out "$SMOKE/telemetry_resume.json" > "$SMOKE/report_resume.txt"
grep -q 'resuming from round' "$SMOKE/report_resume.txt"
grep -q '"resumed": true' "$SMOKE/telemetry_resume.json"
grep -q 'recovery.fallback' "$SMOKE/telemetry_resume.json"

echo "== tier-1: marketplace spam-storm smoke run (defend, kill, resume) =="
# An adversarial marketplace at 30% spam/collusion: the defended run
# must actually quarantine workers, spend adaptive extra votes, and
# still clear an F1 floor a flat 3-vote majority cannot reach at this
# spam rate (the frontier bench pins the full sweep; this smoke pins
# the defense engaging at all). Then the marketplace state must ride
# the checkpoint envelope: dropping the newest snapshot forces a
# mid-run resume that replays the answer-log tail, and the recovered
# reputations must reproduce the marketplace summary byte for byte.
"$CLI" generate --dataset anti --n 60 --d 4 --levels 6 --seed 5 \
  --out "$SMOKE/market_complete.csv"
"$CLI" inject --in "$SMOKE/market_complete.csv" --rate 0.3 --seed 5 \
  --out "$SMOKE/market_holes.csv"
run_market() {
  "$CLI" run --data "$SMOKE/market_holes.csv" \
    --truth "$SMOKE/market_complete.csv" \
    --alpha -1 --budget 300 --latency 3 --seed 11 --threads 4 \
    --marketplace 20 --spam-rate 0.3 --adaptive-votes 5 \
    --log-level warning \
    --checkpoint-dir "$SMOKE/market-ckpt" --checkpoint-every 2 "$@"
}
run_market > "$SMOKE/report_market.txt"
grep -Eq 'marketplace: .*quarantined=[1-9]' "$SMOKE/report_market.txt"
grep -q 'adaptive votes: ' "$SMOKE/report_market.txt"
python3 - "$SMOKE/report_market.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
f1 = float(re.search(r"F1=([0-9.]+)", text).group(1))
assert f1 >= 0.9, f"defended spam-storm F1 collapsed: {f1}"
EOF
NEWEST="$(ls "$SMOKE"/market-ckpt/ckpt-*.bin | tail -1)"
rm "$NEWEST"                              # Force a mid-run resume.
run_market --resume > "$SMOKE/report_market_resume.txt"
grep -q 'resuming from round' "$SMOKE/report_market_resume.txt"
MKT1="$(grep '^marketplace:' "$SMOKE/report_market.txt")"
MKT2="$(grep '^marketplace:' "$SMOKE/report_market_resume.txt")"
[ "$MKT1" = "$MKT2" ]                     # Reputations survived the kill.

echo "== tier-1: hostile-instance governed smoke run =="
# A resource-governed query over a dataset engineered to defeat the
# solver's shortcuts: 16 levels and a 35% missing rate put enough
# objects past the star fast path's hub cap that a 4-node budget
# actually exercises the degradation ladder (thousands of exhaustions,
# degraded objects, breaker trips) instead of passing vacuously. UBS
# (not HHS) because it scores every eligible candidate in one batch,
# making the solver tier tallies — not just the answers — thread-count
# invariant; the 1-thread and 8-thread runs must then produce
# byte-identical telemetry once lane/thread configuration noise is
# stripped.
"$CLI" generate --dataset corr --n 40 --d 8 --levels 16 --seed 3 \
  --out "$SMOKE/hostile_complete.csv"
"$CLI" inject --in "$SMOKE/hostile_complete.csv" --rate 0.35 --seed 3 \
  --out "$SMOKE/hostile_holes.csv"
run_governed() {
  "$CLI" run --data "$SMOKE/hostile_holes.csv" \
    --truth "$SMOKE/hostile_complete.csv" \
    --strategy ubs --budget 20 --latency 4 --threads "$1" --alpha -1 \
    --solver-node-budget 4 --solver-ladder full --breaker-threshold 2 \
    --log-level warning \
    --telemetry-out "$2" > "$3"
}
run_governed 1 "$SMOKE/telemetry_gov1.json" "$SMOKE/report_gov1.txt"
run_governed 8 "$SMOKE/telemetry_gov8.json" "$SMOKE/report_gov8.txt"
grep -q 'solver:' "$SMOKE/report_gov1.txt"         # Ladder reported.
grep -q '"solver"' "$SMOKE/telemetry_gov1.json"
python3 - "$SMOKE/telemetry_gov1.json" <<'EOF'
import json, sys
solver = json.load(open(sys.argv[1]))["payload"]["solver"]
assert solver["budget_exhausted"] > 0, "hostile budget never fired"
EOF
"$CLI" normalize --in "$SMOKE/telemetry_gov1.json" --strip-lanes \
  --out "$SMOKE/telemetry_gov1_norm.json"
"$CLI" normalize --in "$SMOKE/telemetry_gov8.json" --strip-lanes \
  --out "$SMOKE/telemetry_gov8_norm.json"
cmp "$SMOKE/telemetry_gov1_norm.json" "$SMOKE/telemetry_gov8_norm.json"

echo "== tier-1: compiled-path smoke run =="
# The first smoke dataset again, with knowledge compilation forced on
# and the solver ungoverned so every first solve completes exactly (and
# so compiles). Compiled replay must be thread-count invariant down to
# the byte, and the telemetry must prove the circuits actually engaged
# (builds and replays > 0) rather than silently falling back to the
# search. (The hostile instance is the wrong vehicle here: exact solves
# on it take minutes; this stage pins the replay path, not endurance.)
run_compiled() {
  "$CLI" run --data "$SMOKE/holes.csv" --truth "$SMOKE/complete.csv" \
    --strategy ubs --budget 20 --latency 4 --threads "$1" --alpha -1 \
    --compile on \
    --log-level warning \
    --telemetry-out "$2" > /dev/null
}
run_compiled 1 "$SMOKE/telemetry_comp1.json"
run_compiled 8 "$SMOKE/telemetry_comp8.json"
python3 - "$SMOKE/telemetry_comp1.json" <<'EOF'
import json, sys
compile_stats = json.load(open(sys.argv[1]))["payload"]["compile"]
assert compile_stats["builds"] > 0, "no circuits were ever compiled"
assert compile_stats["reuses"] > 0, "compiled circuits were never replayed"
EOF
"$CLI" normalize --in "$SMOKE/telemetry_comp1.json" --strip-lanes \
  --out "$SMOKE/telemetry_comp1_norm.json"
"$CLI" normalize --in "$SMOKE/telemetry_comp8.json" --strip-lanes \
  --out "$SMOKE/telemetry_comp8_norm.json"
cmp "$SMOKE/telemetry_comp1_norm.json" "$SMOKE/telemetry_comp8_norm.json"

echo "== tier-1: cost attribution & inspection smoke =="
# Labeled-cost run with the flight recorder and both live exporters on.
# Two identical-seed runs must diff clean through `inspect --diff` (and
# so must the 1-vs-8-thread governed pair above); the inspection must
# attribute >=95% of phase wall-clock and 100% of cost units; a torn
# flight-recorder tail (crash mid-write) must degrade to a skipped-line
# count, never an error.
run_attr() {
  "$CLI" run --data "$SMOKE/holes.csv" --truth "$SMOKE/complete.csv" \
    --strategy hhs --budget 20 --latency 4 --threads 4 --alpha -1 \
    --session smoke --log-level warning \
    --flight-out "$2" \
    --metrics-prom "$SMOKE/scrape.prom" \
    --metrics-stream "$SMOKE/rounds.jsonl" \
    --telemetry-out "$1" > /dev/null
}
run_attr "$SMOKE/telemetry_attr_a.json" "$SMOKE/flight_a.jsonl"
run_attr "$SMOKE/telemetry_attr_b.json" "$SMOKE/flight_b.jsonl"
grep -q '^cost_' "$SMOKE/scrape.prom"           # Labeled series exported.
grep -q 'round_snapshot' "$SMOKE/rounds.jsonl"  # One envelope per round.
grep -q 'flight_header' "$SMOKE/flight_a.jsonl"
"$CLI" inspect --run "$SMOKE/telemetry_attr_a.json" \
  --flight "$SMOKE/flight_a.jsonl" > "$SMOKE/inspect_a.txt"
python3 - "$SMOKE/inspect_a.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
wall = float(re.search(r"wall_coverage: ([0-9.]+)%", text).group(1))
units = float(re.search(r"unit_coverage: ([0-9.]+)%", text).group(1))
assert wall >= 95.0, f"wall-clock attribution too low: {wall}%"
assert units == 100.0, f"cost units lost their labels: {units}%"
EOF
"$CLI" inspect --run "$SMOKE/telemetry_attr_a.json" \
  --diff "$SMOKE/telemetry_attr_b.json" > "$SMOKE/inspect_diff.txt"
grep -q 'no regressions' "$SMOKE/inspect_diff.txt"
"$CLI" inspect --run "$SMOKE/telemetry_gov1.json" \
  --diff "$SMOKE/telemetry_gov8.json" > /dev/null
printf '{"seq": 999, "kind": "re' >> "$SMOKE/flight_a.jsonl"
"$CLI" inspect --run "$SMOKE/telemetry_attr_a.json" \
  --flight "$SMOKE/flight_a.jsonl" > "$SMOKE/inspect_torn.txt"
grep -q '1 corrupt line(s) skipped' "$SMOKE/inspect_torn.txt"

echo "== tier-1: multi-session serve smoke =="
# Three tenants resident in one server process, interleaved round by
# round on a shared pool. The heavy tenant runs under a QoS ladder
# (8 -> 1 solver nodes after round 1) with the certainty band disabled,
# so it must degrade — inexact answers, a stepped qos counter — while
# the light tenants finish exact. The scrape file must carry the
# tenant=/session= labels the fleet dashboards key on.
SERVE="$ROOT/build/tools/bayescrowd_serve"
printf '%s\n' \
  '{"op":"create","id":"a1","tenant":"acme","dataset":{"kind":"nba","n":120,"seed":9,"missing_rate":0.15,"missing_seed":5},"alpha":0.01,"budget":24,"latency":4,"m":5}' \
  '{"op":"create","id":"b1","tenant":"bravo","dataset":{"kind":"nba","n":100,"seed":10,"missing_rate":0.18,"missing_seed":7},"alpha":0.01,"budget":12,"latency":3}' \
  '{"op":"create","id":"h1","tenant":"heavy","dataset":{"kind":"nba","n":60,"seed":9,"missing_rate":0.2,"missing_seed":5},"alpha":-1,"budget":4,"latency":4,"m":5}' \
  '{"op":"advance","id":"a1","rounds":1}' \
  '{"op":"advance","id":"b1","rounds":1}' \
  '{"op":"advance","id":"h1","rounds":1}' \
  '{"op":"advance","id":"a1","rounds":100}' \
  '{"op":"advance","id":"b1","rounds":100}' \
  '{"op":"advance","id":"h1","rounds":100}' \
  '{"op":"finish","id":"a1"}' \
  '{"op":"finish","id":"b1"}' \
  '{"op":"finish","id":"h1"}' \
  '{"op":"shutdown"}' \
  | "$SERVE" --threads 4 --qos 'heavy=1:1:8,1' \
      --metrics-prom "$SMOKE/serve.prom" \
      --flight-out "$SMOKE/serve_flight.jsonl" > "$SMOKE/serve_out.jsonl"
! grep -q '"ok":false' "$SMOKE/serve_out.jsonl"   # Every op succeeded.
grep -q '"id":"a1".*"exact":true' "$SMOKE/serve_out.jsonl"
grep -q '"id":"b1".*"exact":true' "$SMOKE/serve_out.jsonl"
grep -q '"id":"h1".*"exact":false' "$SMOKE/serve_out.jsonl"
grep -q 'tenant="acme"' "$SMOKE/serve.prom"
grep -q 'tenant="bravo"' "$SMOKE/serve.prom"
grep -q 'serve_qos_degrades{session="h1",tenant="heavy"} 2' "$SMOKE/serve.prom"
grep -q 'serve_rounds{session="h1",tenant="heavy"}' "$SMOKE/serve.prom"
grep -q '"kind":"qos_degrade"' "$SMOKE/serve_flight.jsonl"

echo "== tier-1: serve chaos smoke (quarantine, shed, kill -9, recover) =="
# Phase A: live chaos. A tenant whose checkpoint writes always fail
# (--chaos with a path match on its checkpoint dir) must be quarantined
# after the failure threshold, the deterministic shed trip must answer
# "overloaded" with a retry hint, and the healthy tenant must still
# finish exact — one tenant's broken disk is not another's outage.
printf '%s\n' \
  '{"op":"create","id":"p1","tenant":"poison","dataset":{"kind":"nba","n":120,"seed":9,"missing_rate":0.15,"missing_seed":5},"alpha":0.01,"budget":12,"latency":4,"m":5,"checkpoint_dir":"'"$SMOKE"'/poison-ckpt","checkpoint_every":1}' \
  '{"op":"create","id":"g1","tenant":"good","dataset":{"kind":"nba","n":100,"seed":10,"missing_rate":0.18,"missing_seed":7},"alpha":0.01,"budget":12,"latency":3}' \
  '{"op":"advance","id":"p1","rounds":1}' \
  '{"op":"advance","id":"p1","rounds":1}' \
  '{"op":"advance","id":"p1","rounds":1}' \
  '{"op":"advance","id":"g1","rounds":100}' \
  '{"op":"advance","id":"g1","rounds":100}' \
  '{"op":"advance","id":"g1","rounds":100}' \
  '{"op":"advance","id":"g1","rounds":100}' \
  '{"op":"advance","id":"g1","rounds":100}' \
  '{"op":"finish","id":"g1"}' \
  '{"op":"finish","id":"g1"}' \
  '{"op":"shutdown"}' \
  | "$SERVE" --threads 4 \
      --chaos "write_fail=1.0,seed=7,match=poison-ckpt,shed_every=9" \
      --flight-out "$SMOKE/chaos_flight.jsonl" > "$SMOKE/chaos_out.jsonl"
grep -q '"kind":"quarantine"' "$SMOKE/chaos_flight.jsonl"
grep -q '"overloaded":true' "$SMOKE/chaos_out.jsonl"
grep -q '"retry_after_ms"' "$SMOKE/chaos_out.jsonl"
grep -q '"id":"g1".*"exact":true' "$SMOKE/chaos_out.jsonl"

# Phase B: the crash. A journaled server (--state-dir) is fed three
# checkpoint-every-round sessions through a fifo, advanced a couple of
# rounds, then SIGKILLed — no shutdown, no flush. The restart with
# --recover must replay the manifest, resume all three, drain them to
# completion, and export the recovery series in the scrape file.
STATE="$SMOKE/serve-state"
mkdir -p "$STATE"
FIFO="$SMOKE/serve.fifo"
mkfifo "$FIFO"
"$SERVE" --threads 4 --state-dir "$STATE" \
  < "$FIFO" > "$SMOKE/precrash_out.jsonl" &
SERVE_PID=$!
exec 3>"$FIFO"
printf '%s\n' \
  '{"op":"create","id":"r1","tenant":"acme","dataset":{"kind":"nba","n":120,"seed":9,"missing_rate":0.15,"missing_seed":5},"alpha":0.01,"budget":24,"latency":4,"m":5,"checkpoint_every":1}' \
  '{"op":"create","id":"r2","tenant":"bravo","dataset":{"kind":"nba","n":100,"seed":10,"missing_rate":0.18,"missing_seed":7},"alpha":0.01,"budget":12,"latency":3,"checkpoint_every":1}' \
  '{"op":"create","id":"r3","tenant":"acme","dataset":{"kind":"nba","n":120,"seed":11,"missing_rate":0.15,"missing_seed":5},"alpha":0.01,"budget":12,"latency":4,"m":5,"checkpoint_every":1}' \
  '{"op":"advance","id":"r1","rounds":2}' \
  '{"op":"advance","id":"r2","rounds":1}' \
  '{"op":"advance","id":"r3","rounds":1}' >&3
# Wait until all six responses are durable, so the kill lands between
# verbs (the killpoint *matrix* lives in serve_killpoint_test; this
# smoke proves the real-process SIGKILL + --recover round trip).
for _ in $(seq 1 100); do
  [ "$(wc -l < "$SMOKE/precrash_out.jsonl")" -ge 6 ] && break
  sleep 0.2
done
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
exec 3>&-
rm -f "$FIFO"
printf '%s\n' \
  '{"op":"advance","id":"r1","rounds":100}' \
  '{"op":"advance","id":"r2","rounds":100}' \
  '{"op":"advance","id":"r3","rounds":100}' \
  '{"op":"finish","id":"r1"}' \
  '{"op":"finish","id":"r2"}' \
  '{"op":"finish","id":"r3"}' \
  '{"op":"shutdown"}' \
  | "$SERVE" --threads 4 --state-dir "$STATE" --recover \
      --metrics-prom "$SMOKE/recover.prom" > "$SMOKE/recover_out.jsonl"
head -1 "$SMOKE/recover_out.jsonl" | grep -q '"op":"recover"'
head -1 "$SMOKE/recover_out.jsonl" | grep -q '"sessions_resumed":3'
! grep -q '"ok":false' "$SMOKE/recover_out.jsonl"
grep -q '"id":"r1".*"exact":true' "$SMOKE/recover_out.jsonl"
grep -q 'serve_recovery_sessions_resumed 3' "$SMOKE/recover.prom"

echo "== tier-1: crash-safety and factor-kernel tests under ASan+UBSan =="
# The Bayes-net factor kernels step flat indices by raw strides, so their
# tests ride along with the recovery-path tests.
cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DBC_SANITIZE=address,undefined \
  -DBAYESCROWD_BUILD_BENCHMARKS=OFF \
  -DBAYESCROWD_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/build-asan" -j "$JOBS" --target checkpoint_test \
  --target killpoint_test --target fault_test --target differential_test \
  --target governor_test --target compile_test --target obs_test \
  --target attribution_test --target serve_test \
  --target serve_killpoint_test --target quality_test \
  --target marketplace_test --target bayesnet_test \
  --target inference_property_test
ctest --test-dir "$ROOT/build-asan" --output-on-failure \
  -R '(checkpoint_test|killpoint_test|fault_test|differential_test|governor_test|compile_test|obs_test|attribution_test|serve_test|serve_killpoint_test|quality_test|marketplace_test|bayesnet_test|inference_property_test)'

echo "== tier-1: concurrency tests under ThreadSanitizer =="
cmake -B "$ROOT/build-tsan" -S "$ROOT" \
  -DBC_SANITIZE=thread \
  -DBAYESCROWD_BUILD_BENCHMARKS=OFF \
  -DBAYESCROWD_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/build-tsan" -j "$JOBS" --target parallel_test \
  --target obs_test --target attribution_test --target differential_test \
  --target fault_test --target record_replay_test --target governor_test \
  --target compile_test --target serve_test \
  --target serve_killpoint_test --target marketplace_test
ctest --test-dir "$ROOT/build-tsan" --output-on-failure \
  -R '(parallel_test|obs_test|attribution_test|differential_test|fault_test|record_replay_test|governor_test|compile_test|serve_test|serve_killpoint_test|marketplace_test)'

echo "tier-1 OK"
