#!/usr/bin/env bash
# CLI contract test, registered with ctest as `cli_test`.
#
# Pins the unified data-seed default: `generate` and `inject` both
# default to --seed 42 (historically generate used 42 but inject used
# 7), and the seed flag actually steers the output. Also checks the
# fault-flag validation the run command grew with the retry layer, the
# solver-governor flag validation, the marketplace flag validation
# (--marketplace / --spam-rate / --adaptive-votes / --no-defense), that
# the retired knowledge-compilation, Pr(φ) memo and manual pause flags
# are unknown flags, that a resume under another posterior model is refused, and
# that an interactive session pauses and resumes through
# --checkpoint-dir (a fresh run refuses the paused directory).
#
# Every command reads its flags through a key table, so a flag the
# command does not take (a typo included) exits 2 with one line.
#
# Also pins the bayescrowd_serve JSONL protocol against committed golden
# fixtures (tests/testdata/serve_golden_*.jsonl) and its bad-input
# behavior: a malformed request line, an unknown key or an out-of-range
# value gets a one-line diagnostic naming the key and the connection
# survives; bad flags (an unwritable --metrics-prom or --flight-out
# included) exit 2 without starting the loop. `run` and serve
# `create` read one query spec: the same query through either gives the
# same answer, and a create that leaves the budget out gets the CLI's
# default of 50. The
# crash-only serving wire formats ride along: the deadline_ms echo on
# advance, the overloaded/retry_after_ms shed response, --recover's
# leading op:recover report line after a kill, the --recover /
# --chaos flag validation, and that a journaled create carrying a
# retired key fails re-admission.
#
# Usage: cli_test.sh <path-to-bayescrowd_cli> <path-to-bayescrowd_serve>

set -euo pipefail

CLI="${1:?usage: cli_test.sh <cli> <serve>}"
SERVE="${2:?usage: cli_test.sh <cli> <serve>}"
TESTDATA="$(cd "$(dirname "$0")/../tests/testdata" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# ------------------------------------------------------------------ #
# generate: implicit seed == --seed 42, and the seed matters.
# ------------------------------------------------------------------ #
"${CLI}" generate --dataset indep --n 40 --d 3 --out "${WORK}/gen_default.csv" >/dev/null
"${CLI}" generate --dataset indep --n 40 --d 3 --seed 42 --out "${WORK}/gen_42.csv" >/dev/null
"${CLI}" generate --dataset indep --n 40 --d 3 --seed 7 --out "${WORK}/gen_7.csv" >/dev/null

cmp -s "${WORK}/gen_default.csv" "${WORK}/gen_42.csv" \
  || fail "generate without --seed must equal generate --seed 42"
cmp -s "${WORK}/gen_default.csv" "${WORK}/gen_7.csv" \
  && fail "generate --seed 7 must differ from the default seed"

# ------------------------------------------------------------------ #
# inject: same unified default (the historical 7 is gone).
# ------------------------------------------------------------------ #
"${CLI}" inject --in "${WORK}/gen_42.csv" --rate 0.2 --out "${WORK}/inj_default.csv" >/dev/null
"${CLI}" inject --in "${WORK}/gen_42.csv" --rate 0.2 --seed 42 --out "${WORK}/inj_42.csv" >/dev/null
"${CLI}" inject --in "${WORK}/gen_42.csv" --rate 0.2 --seed 7 --out "${WORK}/inj_7.csv" >/dev/null

cmp -s "${WORK}/inj_default.csv" "${WORK}/inj_42.csv" \
  || fail "inject without --seed must equal inject --seed 42"
cmp -s "${WORK}/inj_default.csv" "${WORK}/inj_7.csv" \
  && fail "inject --seed 7 must differ from the default seed"

# ------------------------------------------------------------------ #
# Bad numbers are usage errors: a non-numeric value, a negative integer
# or a size below its minimum exits 2 with a one-line diagnostic —
# never an abort (generate --n -1 used to throw std::length_error) or a
# silent default (--n abc used to write 1000 rows).
# ------------------------------------------------------------------ #
for bad in "--n -1" "--n abc" "--n 0" "--d 0" "--levels 1" "--seed -3"; do
  rc=0
  # shellcheck disable=SC2086
  "${CLI}" generate --dataset indep ${bad} --out "${WORK}/bad.csv" \
    >/dev/null 2>"${WORK}/bad.err" || rc=$?
  [ "${rc}" -eq 2 ] || fail "generate ${bad} must exit 2, got ${rc}"
  [ "$(wc -l < "${WORK}/bad.err")" -eq 1 ] \
    || fail "generate ${bad} must print exactly one diagnostic line"
done
[ ! -e "${WORK}/bad.csv" ] || fail "a rejected generate must write nothing"
rc=0
"${CLI}" inject --in "${WORK}/gen_42.csv" --rate abc \
  --out "${WORK}/bad.csv" >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "inject --rate abc must exit 2, got ${rc}"

# A flag the command does not read is a usage error, not a silent
# default: `run --budegt 5 --stratgy fbs` used to run as B=50 HHS, and a
# value past its destination type used to wrap (--levels 4294967298
# became 2).
expect_usage_error() {
  local rc=0
  "${CLI}" "$@" >/dev/null 2>"${WORK}/usage.err" || rc=$?
  [ "${rc}" -eq 2 ] || fail "$* must exit 2, got ${rc}"
  [ "$(wc -l < "${WORK}/usage.err")" -eq 1 ] \
    || fail "$* must print exactly one diagnostic line"
}
expect_usage_error generate --dataset indep --budget 5 --out "${WORK}/bad.csv"
expect_usage_error run --data "${WORK}/inj_42.csv" --truth "${WORK}/gen_42.csv" \
  --budegt 5 --stratgy fbs
expect_usage_error generate --dataset indep --levels 4294967298 \
  --out "${WORK}/bad.csv"
expect_usage_error generate --dataset indep --n 10000000 --d 64 \
  --out "${WORK}/bad.csv"
expect_usage_error generate --dataset plasma --out "${WORK}/bad.csv"
[ ! -e "${WORK}/bad.csv" ] || fail "a rejected generate must write nothing"

# ------------------------------------------------------------------ #
# run: fault flags validate, and a faulted run is seed-reproducible.
# ------------------------------------------------------------------ #
if "${CLI}" run --data "${WORK}/inj_42.csv" --truth "${WORK}/gen_42.csv" \
    --fault-rate 1.5 >/dev/null 2>&1; then
  fail "run must reject --fault-rate outside [0, 1]"
fi
if "${CLI}" run --data "${WORK}/inj_42.csv" --truth "${WORK}/gen_42.csv" \
    --max-retries -1 >/dev/null 2>&1; then
  fail "run must reject a negative --max-retries"
fi

run_faulted() {
  "${CLI}" run --data "${WORK}/inj_42.csv" --truth "${WORK}/gen_42.csv" \
    --budget 12 --latency 3 \
    --fault-rate 0.3 --fault-seed 11 --max-retries 3 --round-deadline 30 \
    --telemetry-out "$1" >/dev/null
}
run_faulted "${WORK}/telemetry_a.json"
run_faulted "${WORK}/telemetry_b.json"

# The deterministic recovery block must be present and identical across
# the two runs (wall-clock fields differ; the recovery totals may not).
extract_recovery() {
  python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print(json.dumps(doc["payload"]["recovery"], sort_keys=True))
EOF
}
rec_a="$(extract_recovery "${WORK}/telemetry_a.json")"
rec_b="$(extract_recovery "${WORK}/telemetry_b.json")"
[ "${rec_a}" = "${rec_b}" ] \
  || fail "faulted runs with the same --fault-seed diverged: ${rec_a} vs ${rec_b}"
echo "${rec_a}" | grep -q '"retries"' \
  || fail "telemetry recovery block is missing retry counters"

# ------------------------------------------------------------------ #
# run: solver-governor flags validate.
# ------------------------------------------------------------------ #
run_base() {
  "${CLI}" run --data "${WORK}/inj_42.csv" --truth "${WORK}/gen_42.csv" "$@"
}
if run_base --solver-node-budget 0 >/dev/null 2>&1; then
  fail "run must reject --solver-node-budget 0"
fi
if run_base --solver-node-budget -5 >/dev/null 2>&1; then
  fail "run must reject a negative --solver-node-budget"
fi
if run_base --solver-component-budget 0 >/dev/null 2>&1; then
  fail "run must reject --solver-component-budget 0"
fi
if run_base --solver-deadline-ms 0 >/dev/null 2>&1; then
  fail "run must reject --solver-deadline-ms 0"
fi
if run_base --solver-ladder bogus >/dev/null 2>&1; then
  fail "run must reject an unknown --solver-ladder name"
fi
if run_base --breaker-threshold -1 >/dev/null 2>&1; then
  fail "run must reject a negative --breaker-threshold"
fi
for bad in "--budget -3" "--latency 0" "--m x" "--threads -2"; do
  rc=0
  # shellcheck disable=SC2086
  run_base ${bad} >/dev/null 2>&1 || rc=$?
  [ "${rc}" -eq 2 ] || fail "run ${bad} must exit 2, got ${rc}"
done
# Each rejection must be a one-line diagnostic (plus nothing else).
# (The expected nonzero exit would trip set -e/pipefail unguarded.)
lines="$( (run_base --solver-ladder bogus 2>&1 >/dev/null || true) | wc -l)"
[ "${lines}" -eq 1 ] \
  || fail "--solver-ladder rejection must print exactly one line, got ${lines}"

# ------------------------------------------------------------------ #
# run: the retired knowledge-compilation and Pr(φ) memo flags are
# unknown flags.
# ------------------------------------------------------------------ #
for retired in "--compile auto" "--compile-node-budget 64" "--no-cache"; do
  rc=0
  # shellcheck disable=SC2086  # Split the flag from its value.
  run_base ${retired} >/dev/null 2>&1 || rc=$?
  [ "${rc}" -eq 2 ] || fail "run ${retired} must exit 2, got ${rc}"
  # shellcheck disable=SC2086
  lines="$( (run_base ${retired} 2>&1 >/dev/null || true) | wc -l)"
  [ "${lines}" -eq 1 ] \
    || fail "run ${retired} rejection must print exactly one line, got ${lines}"
done

# ------------------------------------------------------------------ #
# run: marketplace flags validate.
# ------------------------------------------------------------------ #
if run_base --marketplace 2 >/dev/null 2>&1; then
  fail "run must reject a --marketplace pool smaller than 3"
fi
if run_base --marketplace 20 --spam-rate 1.5 >/dev/null 2>&1; then
  fail "run must reject --spam-rate outside [0, 1]"
fi
if run_base --marketplace 20 --adaptive-votes 2 >/dev/null 2>&1; then
  fail "run must reject --adaptive-votes below the base fan-out"
fi
# The marketplace modifiers are meaningless without a marketplace.
for orphan in "--spam-rate 0.3" "--adaptive-votes 5" "--no-defense"; do
  # shellcheck disable=SC2086
  if run_base ${orphan} >/dev/null 2>&1; then
    fail "run must reject ${orphan% *} without --marketplace"
  fi
done
if run_base --marketplace 20 --interactive >/dev/null 2>&1; then
  fail "run must reject --marketplace combined with --interactive"
fi
lines="$( (run_base --marketplace 2 2>&1 >/dev/null || true) | wc -l)"
[ "${lines}" -eq 1 ] \
  || fail "--marketplace rejection must print exactly one line, got ${lines}"

# ------------------------------------------------------------------ #
# run: a governed run is deterministic (normalized telemetry diffs
# clean across repeats), and the solver block reports its tiers.
# ------------------------------------------------------------------ #
run_governed() {
  run_base --alpha -1 --budget 12 --latency 3 \
    --solver-node-budget 4 --solver-ladder full --breaker-threshold 2 \
    --telemetry-out "$1" >/dev/null
}
run_governed "${WORK}/gov_a.json"
run_governed "${WORK}/gov_b.json"
"${CLI}" normalize --in "${WORK}/gov_a.json" --out "${WORK}/gov_a_norm.json"
"${CLI}" normalize --in "${WORK}/gov_b.json" --out "${WORK}/gov_b_norm.json"
cmp -s "${WORK}/gov_a_norm.json" "${WORK}/gov_b_norm.json" \
  || fail "governed runs with the same budgets diverged after normalization"
python3 - "${WORK}/gov_a_norm.json" <<'EOF' || fail "telemetry solver block malformed"
import json, sys
solver = json.load(open(sys.argv[1]))["payload"]["solver"]
assert "budget_exhausted" in solver and "tier_exact" in solver
assert solver["deadline_hits"] == 0, "normalize must zero deadline_hits"
tiers = (solver["tier_exact"] + solver["tier_partial"]
         + solver["tier_sampled"] + solver["tier_unknown"])
assert tiers > 0, "governed run recorded no tiered evaluations"
EOF

# ------------------------------------------------------------------ #
# run: attribution/export flags validate at flag time with one-line
# diagnostics and exit code 2 — never a crash mid-run.
# ------------------------------------------------------------------ #
rc=0; run_base --session 'bad session!' >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] \
  || fail "--session with illegal characters must exit 2, got ${rc}"
rc=0; run_base --session '' >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "an empty --session must exit 2, got ${rc}"
lines="$( (run_base --session 'bad session!' 2>&1 >/dev/null || true) | wc -l)"
[ "${lines}" -eq 1 ] \
  || fail "--session rejection must print exactly one line, got ${lines}"
for flag in flight-out metrics-prom metrics-stream; do
  rc=0
  run_base --budget 4 --latency 2 \
    "--${flag}" /nonexistent-dir/out >/dev/null 2>&1 || rc=$?
  [ "${rc}" -eq 2 ] \
    || fail "--${flag} to an unwritable path must exit 2, got ${rc}"
  lines="$( (run_base --budget 4 --latency 2 \
    "--${flag}" /nonexistent-dir/out 2>&1 >/dev/null || true) | wc -l)"
  [ "${lines}" -eq 1 ] \
    || fail "--${flag} rejection must print exactly one line, got ${lines}"
done

# ------------------------------------------------------------------ #
# run: a checkpoint is bound to its posterior model. Resuming under
# another --structure is refused; the same flags still resume.
# ------------------------------------------------------------------ #
run_ckpt() {
  run_base --alpha -1 --budget 12 --latency 3 \
    --checkpoint-dir "${WORK}/model-ckpt" "$@" >/dev/null
}
run_ckpt --structure none
rc=0; run_ckpt --resume 2>"${WORK}/resume_model.err" || rc=$?
[ "${rc}" -eq 1 ] \
  || fail "resuming a --structure none checkpoint under hillclimb must exit 1, got ${rc}"
grep -q "different configuration" "${WORK}/resume_model.err" \
  || fail "a resume under another --structure must name the configuration change"
run_ckpt --structure none --resume \
  || fail "resuming with the same --structure must still work"

# ------------------------------------------------------------------ #
# run: --checkpoint-dir is the one way to pause. An interactive session
# cut off by EOF resumes from its durable answers: the resumed run asks
# only the tasks an uninterrupted session had left, under the session's
# own round numbers. A fresh run refuses the paused directory and
# leaves it as it was.
# ------------------------------------------------------------------ #
answers() { printf 'l\n%.0s' $(seq 1 "$1"); }
run_interactive() {
  "${CLI}" run --data "${WORK}/inj_42.csv" --interactive --budget 8 \
    --latency 4 --alpha -1 "$@"
}
prompts() { grep -c 'answer (l)arger' "$1" || true; }
answers 20 | run_interactive > "${WORK}/whole.txt"
rc=0
answers 4 | run_interactive --checkpoint-dir "${WORK}/pause" \
  > "${WORK}/paused.txt" 2>/dev/null || rc=$?
[ "${rc}" -eq 1 ] || fail "an interactive run cut off by EOF must exit 1, got ${rc}"
answers 20 | run_interactive --checkpoint-dir "${WORK}/pause" --resume \
  > "${WORK}/resumed.txt"
[ "$(prompts "${WORK}/resumed.txt")" -eq "$(( $(prompts "${WORK}/whole.txt") - 4 ))" ] \
  || fail "a resumed interactive session must ask only its remaining tasks"
grep -q -- '--- round 3:' "${WORK}/resumed.txt" \
  || fail "a resumed interactive session must keep its round numbers"
! grep -q -- '--- round 1:' "${WORK}/resumed.txt" \
  || fail "a resumed interactive session restarted its round count"
ls "${WORK}/pause" > "${WORK}/pause_before.txt"
cksum "${WORK}/pause/answers.log" > "${WORK}/pause_log_before.txt"
rc=0
run_base --budget 8 --latency 4 --checkpoint-dir "${WORK}/pause" \
  >/dev/null 2>"${WORK}/fresh.err" || rc=$?
[ "${rc}" -eq 1 ] || fail "a fresh run into a paused session's dir must exit 1, got ${rc}"
[ "$(wc -l < "${WORK}/fresh.err")" -eq 1 ] \
  || fail "the fresh-run refusal must print exactly one line"
grep -q -- "${WORK}/pause.*--resume" "${WORK}/fresh.err" \
  || fail "the fresh-run refusal must name the directory and --resume"
ls "${WORK}/pause" | cmp -s - "${WORK}/pause_before.txt" \
  || fail "a refused fresh run must leave the directory's files alone"
cksum "${WORK}/pause/answers.log" | cmp -s - "${WORK}/pause_log_before.txt" \
  || fail "a refused fresh run must not truncate the answer log"

# A faulted interactive session resumed from an older snapshot replays
# the newer rounds from its answer log without asking them again: the
# fault injector forwards replayed batches to the human's replay hook,
# never to its prompt. Ten answers buy two five-task rounds; the run
# dies at the third round's first prompt.
run_faulted_interactive() {
  run_interactive --budget 20 --fault-rate 0.3 --fault-seed 2 "$@"
}
answers 40 | run_faulted_interactive > "${WORK}/fwhole.txt"
rc=0
answers 10 | run_faulted_interactive --checkpoint-dir "${WORK}/fpause" \
  > /dev/null 2>&1 || rc=$?
[ "${rc}" -eq 1 ] || fail "a faulted interactive run cut off by EOF must exit 1, got ${rc}"
rm "${WORK}/fpause/$(ls "${WORK}/fpause" | grep '^ckpt-' | tail -1)"
answers 40 | run_faulted_interactive --checkpoint-dir "${WORK}/fpause" --resume \
  > "${WORK}/fresumed.txt"
[ "$(prompts "${WORK}/fresumed.txt")" -eq "$(( $(prompts "${WORK}/fwhole.txt") - 10 ))" ] \
  || fail "a resumed faulted interactive session re-asked replayed tasks"
grep -- '--- round' "${WORK}/fresumed.txt" | head -1 | grep -q -- '--- round 3:' \
  || fail "a resumed faulted interactive session must first ask round 3"

# ------------------------------------------------------------------ #
# run: the barren stop survives a resume. This faulted run stops after
# three barren rounds; resuming its finished directory buys nothing
# and reports exactly what the run reported.
# ------------------------------------------------------------------ #
"${CLI}" generate --dataset nba --n 300 --seed 7 --out "${WORK}/nba.csv" >/dev/null
"${CLI}" inject --in "${WORK}/nba.csv" --rate 0.15 --seed 9 \
  --out "${WORK}/nba_miss.csv" >/dev/null
run_barren() {
  "${CLI}" run --data "${WORK}/nba_miss.csv" --truth "${WORK}/nba.csv" \
    --budget 40 --latency 10 --fault-rate 0.8 --fault-seed 3 \
    --checkpoint-dir "${WORK}/barren" "$@"
}
run_barren --telemetry-out "${WORK}/barren_ref.json" > "${WORK}/barren_ref.txt"
run_barren --resume --telemetry-out "${WORK}/barren_res.json" \
  > "${WORK}/barren_res.txt"
for out in barren_ref barren_res; do
  grep -q '4 tasks over 3 rounds, cost 0.00' "${WORK}/${out}.txt" \
    || fail "${out}: expected 4 tasks over 3 rounds at cost 0.00"
done
for out in barren_ref barren_res; do
  "${CLI}" normalize --in "${WORK}/${out}.json" --strip-resume \
    --out "${WORK}/${out}.norm.json"
done
cmp -s "${WORK}/barren_ref.norm.json" "${WORK}/barren_res.norm.json" \
  || fail "resuming a run that stopped barren must reproduce its telemetry"

# The retired manual pause flags are unknown flags.
expect_usage_error run --data "${WORK}/inj_42.csv" --truth "${WORK}/gen_42.csv" \
  --record "${WORK}/answers.txt"
expect_usage_error run --data "${WORK}/inj_42.csv" --truth "${WORK}/gen_42.csv" \
  --replay-from "${WORK}/answers.txt"

# ------------------------------------------------------------------ #
# inspect: exit 0 when runs agree, 1 on a flagged regression, 2 on
# usage errors — the contract CI gating scripts rely on.
# ------------------------------------------------------------------ #
run_base --alpha -1 --budget 12 --latency 3 --session attr \
  --telemetry-out "${WORK}/attr_a.json" >/dev/null
run_base --alpha -1 --budget 12 --latency 3 --session attr \
  --telemetry-out "${WORK}/attr_b.json" >/dev/null
run_base --alpha -1 --budget 16 --latency 4 --session attr \
  --telemetry-out "${WORK}/attr_drift.json" >/dev/null
"${CLI}" inspect --run "${WORK}/attr_a.json" >/dev/null \
  || fail "inspect --run on healthy telemetry must exit 0"
"${CLI}" inspect --run "${WORK}/attr_a.json" --diff "${WORK}/attr_b.json" \
  >/dev/null || fail "inspect --diff on identical-seed runs must exit 0"
rc=0
"${CLI}" inspect --run "${WORK}/attr_a.json" --diff "${WORK}/attr_drift.json" \
  >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 1 ] \
  || fail "inspect --diff across drifted runs must exit 1, got ${rc}"
rc=0; "${CLI}" inspect >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "inspect without --run must exit 2, got ${rc}"
expect_usage_error inspect --run "${WORK}/attr_a.json" --threshhold 0.1
rc=0; "${CLI}" inspect --run /nonexistent-dir/x.json >/dev/null 2>&1 || rc=$?
[ "${rc}" -ne 0 ] || fail "inspect on a missing telemetry file must fail"

# ------------------------------------------------------------------ #
# serve: the JSONL protocol byte-matches the committed goldens, at
# more than one worker-pool width (interleaving must be invisible).
# ------------------------------------------------------------------ #
for threads in 1 2; do
  "${SERVE}" --threads "${threads}" \
    < "${TESTDATA}/serve_golden_requests.jsonl" \
    > "${WORK}/serve_t${threads}.jsonl"
  cmp -s "${WORK}/serve_t${threads}.jsonl" \
    "${TESTDATA}/serve_golden_responses.jsonl" \
    || fail "serve --threads ${threads} drifted from the golden responses"
done

# serve: a malformed line yields one diagnostic and the connection
# survives — the list op after it must still get a real response.
printf 'this is not json\n{"op":"list"}\n{"op":"shutdown"}\n' \
  | "${SERVE}" > "${WORK}/serve_bad.jsonl"
[ "$(wc -l < "${WORK}/serve_bad.jsonl")" -eq 3 ] \
  || fail "serve must answer every line, even malformed ones"
head -n 1 "${WORK}/serve_bad.jsonl" | grep -q '"ok":false' \
  || fail "malformed request must produce an ok:false line"
head -n 1 "${WORK}/serve_bad.jsonl" | grep -q 'bad request line' \
  || fail "malformed request diagnostic must say 'bad request line'"
sed -n 2p "${WORK}/serve_bad.jsonl" | grep -q '"ok":true' \
  || fail "serve must keep serving after a malformed line"

# serve: unknown ops get a structured error, not a dropped connection.
# (Capture to a file rather than piping through head: closing the pipe
# early races the server's next write into a SIGPIPE under pipefail.)
printf '{"op":"frobnicate"}\n{"op":"shutdown"}\n' \
  | "${SERVE}" > "${WORK}/serve_unknown.jsonl"
head -n 1 "${WORK}/serve_unknown.jsonl" | grep -q "unknown op 'frobnicate'" \
  || fail "unknown op must produce a structured error line"

# serve: bad numbers in a request get an ok:false line and the
# connection survives (a negative n used to abort the server with
# std::length_error; a negative budget wrapped around to 1.8e19).
printf '%s\n' \
  '{"op":"create","id":"x","tenant":"t","dataset":{"kind":"indep","n":-1}}' \
  '{"op":"create","id":"y","tenant":"t","budget":-3}' \
  '{"op":"create","id":"z","tenant":"t","dataset":{"kind":"indep","n":"abc"}}' \
  '{"op":"create","id":"w","tenant":"t","latency":0}' \
  '{"op":"list"}' '{"op":"shutdown"}' \
  | "${SERVE}" > "${WORK}/serve_numbers.jsonl"
[ "$(grep -c '"ok":false' "${WORK}/serve_numbers.jsonl")" -eq 4 ] \
  || fail "serve must answer each bad-number create with ok:false"
sed -n 5p "${WORK}/serve_numbers.jsonl" | grep -q '"op":"list","sessions":\[\]' \
  || fail "serve must keep serving, with no session admitted, after bad numbers"

# serve: a create the reader does not understand is refused with one
# ok:false line naming the key — never silently defaulted (a typo'd
# budget, a dataset that is not a block, the retired nested marketplace
# block, the retired shared-cache keys), never wrapped (levels past 32
# bits), never an abort (a table too large to allocate) — and the
# server keeps serving.
bad_creates=(
  '{"op":"create","id":"x","tenant":"t","budegt":40}|budegt'
  '{"op":"create","id":"x","tenant":"t","dataset":"nba"}|dataset'
  '{"op":"create","id":"x","tenant":"t","marketplace":{"pool_size":20,"defend":1}}|marketplace'
  '{"op":"create","id":"x","tenant":"t","warm_start":true}|warm_start'
  '{"op":"create","id":"x","tenant":"t","cache_key":"nba"}|cache_key'
  '{"op":"create","id":"x","tenant":"t","dataset":{"kind":"indep","levels":4294967298}}|dataset.levels'
  '{"op":"create","id":"x","tenant":"t","dataset":{"kind":"indep","n":2000000000,"d":1000}}|dataset.n'
  '{"op":"create","id":"x","tenant":"t","dataset":{"kind":"indep","n":1000000,"d":64}}|n=1000000'
  '{"op":"create","id":"x","tenant":"t","seed":18446744073709551616}|seed'
  '{"op":"create","id":"x","tenant":"t","budget":4294967296000}|budget'
)
for entry in "${bad_creates[@]}"; do
  request="${entry%|*}"
  key="${entry##*|}"
  printf '%s\n' "${request}" '{"op":"list"}' '{"op":"shutdown"}' \
    | "${SERVE}" > "${WORK}/serve_bad_create.jsonl"
  [ "$(wc -l < "${WORK}/serve_bad_create.jsonl")" -eq 3 ] \
    || fail "serve must answer every line after ${request}"
  head -n 1 "${WORK}/serve_bad_create.jsonl" | grep -q '"ok":false' \
    || fail "serve must refuse ${request}"
  head -n 1 "${WORK}/serve_bad_create.jsonl" | grep -qF "${key}" \
    || fail "the refusal of ${request} must name ${key}"
  sed -n 2p "${WORK}/serve_bad_create.jsonl" \
    | grep -q '"op":"list","sessions":\[\]' \
    || fail "serve must keep serving after ${request}"
done

# serve: admission (id, tenant, duplicate id, residency caps) runs
# before the dataset is generated or a network learned, so a create the
# server would refuse is refused for that reason, at no modeling cost.
printf '%s\n' \
  '{"op":"create","id":"a/b","dataset":{"kind":"plasma"}}' \
  '{"op":"create","id":"u1","tenant":"t","structure":"none"}' \
  '{"op":"create","id":"u1","tenant":"t","dataset":{"kind":"plasma"}}' \
  '{"op":"shutdown"}' \
  | "${SERVE}" > "${WORK}/serve_admit.jsonl"
head -n 1 "${WORK}/serve_admit.jsonl" | grep -q 'id must be non-empty' \
  || fail "a create with an unsafe id must be refused for the id first"
sed -n 2p "${WORK}/serve_admit.jsonl" | grep -q '"ok":true' \
  || fail "serve must admit u1"
sed -n 3p "${WORK}/serve_admit.jsonl" | grep -q "already resident" \
  || fail "re-creating a resident id must be refused as already resident"

# serve: the query defaults are the CLI's (B=50, L=5, m=15), not a
# second set of serve-only defaults.
printf '%s\n' '{"op":"create","id":"u1","tenant":"t"}' '{"op":"shutdown"}' \
  | "${SERVE}" > "${WORK}/serve_defaults.jsonl"
head -n 1 "${WORK}/serve_defaults.jsonl" | grep -q '"budget_left":50.0' \
  || fail "a create without a budget must get the default budget of 50"

# One query, one answer: golden s1 through generate + inject + run and
# through serve create agrees on the answer set and the tasks bought,
# with the default Bayesian network and with uniform posteriors.
"${CLI}" generate --dataset nba --n 120 --seed 9 --out "${WORK}/s1.csv" >/dev/null
"${CLI}" inject --in "${WORK}/s1.csv" --rate 0.15 --seed 5 \
  --out "${WORK}/s1_miss.csv" >/dev/null
S1_QUERY='"dataset":{"kind":"nba","n":120,"seed":9,"missing_rate":0.15,"missing_seed":5},"alpha":0.01,"budget":24,"latency":4,"m":5'
for structure in hillclimb none; do
  "${CLI}" run --data "${WORK}/s1_miss.csv" --truth "${WORK}/s1.csv" \
    --budget 24 --latency 4 --m 5 --alpha 0.01 --structure "${structure}" \
    --telemetry-out "${WORK}/s1_run_${structure}.json" >/dev/null
  printf '%s\n' \
    '{"op":"create","id":"s1","tenant":"acme",'"${S1_QUERY}"',"structure":"'"${structure}"'"}' \
    '{"op":"advance","id":"s1","rounds":100}' \
    '{"op":"finish","id":"s1"}' '{"op":"shutdown"}' \
    | "${SERVE}" > "${WORK}/s1_serve_${structure}.jsonl"
  python3 - "${WORK}/s1_run_${structure}.json" \
    "${WORK}/s1_serve_${structure}.jsonl" <<'EOF' \
    || fail "run and serve disagree on golden s1 (structure ${structure})"
import json, sys
run = json.load(open(sys.argv[1]))["payload"]["result"]
served = json.loads(open(sys.argv[2]).read().splitlines()[2])
assert served["ok"], served
assert run["result_objects"] == served["result_objects"], (run, served)
assert run["tasks_posted"] == served["tasks_posted"], (run, served)
EOF
done

# serve: bad flags exit 2 before the request loop starts.
rc=0; "${SERVE}" --no-such-flag </dev/null >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "serve must exit 2 on an unknown flag, got ${rc}"
rc=0; "${SERVE}" --threads abc </dev/null >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "serve must exit 2 on a non-numeric --threads, got ${rc}"
rc=0; "${SERVE}" --qos "heavy=bogus" </dev/null >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "serve must exit 2 on a bad --qos spec, got ${rc}"

# serve: --metrics-prom is opened at startup like run's, so an
# unwritable path exits 2 before the loop; a writable one is rewritten
# with the serve.* series after every request.
rc=0
"${SERVE}" --metrics-prom /nonexistent-dir/serve.prom </dev/null >/dev/null 2>&1 \
  || rc=$?
[ "${rc}" -eq 2 ] \
  || fail "serve --metrics-prom to an unwritable path must exit 2, got ${rc}"
printf '%s\n' \
  '{"op":"create","id":"p1","tenant":"acme","dataset":{"kind":"indep","n":40,"d":3,"levels":4,"seed":7,"missing_rate":0.2,"missing_seed":5},"budget":6,"latency":3,"m":3,"structure":"none"}' \
  '{"op":"advance","id":"p1","rounds":1}' \
  | "${SERVE}" --metrics-prom "${WORK}/serve.prom" >/dev/null
grep -q '^serve_rounds{' "${WORK}/serve.prom" \
  || fail "serve --metrics-prom must write the serve.* series"

# serve: --recover without a journal to recover from is a usage error.
rc=0; "${SERVE}" --recover </dev/null >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "serve --recover without --state-dir must exit 2"
rc=0; "${SERVE}" --chaos "write_fail=bogus" </dev/null >/dev/null 2>&1 || rc=$?
[ "${rc}" -eq 2 ] || fail "serve must exit 2 on a bad --chaos spec, got ${rc}"

# serve: an advance carrying a deadline echoes it in the response —
# clients correlate degraded answers with the deadline they set.
printf '%s\n' \
  '{"op":"create","id":"d1","tenant":"t","dataset":{"kind":"nba","n":60,"seed":9,"missing_rate":0.2,"missing_seed":5},"alpha":0.01,"budget":8,"latency":4}' \
  '{"op":"advance","id":"d1","rounds":1,"deadline_ms":5000}' \
  '{"op":"shutdown"}' \
  | "${SERVE}" > "${WORK}/serve_deadline.jsonl"
sed -n 2p "${WORK}/serve_deadline.jsonl" | grep -q '"deadline_ms":5000' \
  || fail "advance with deadline_ms must echo the deadline"
sed -n 2p "${WORK}/serve_deadline.jsonl" | grep -q '"ok":true' \
  || fail "deadlined advance must still succeed"

# serve: an unwritable --flight-out exits 2 with one line before it
# reads a single request.
rc=0
echo '{"op":"list"}' | "${SERVE}" --flight-out /nonexistent-dir/f.jsonl \
  > "${WORK}/serve_flight.out" 2> "${WORK}/serve_flight.err" || rc=$?
[ "${rc}" -eq 2 ] || fail "serve --flight-out to an unwritable path must exit 2, got ${rc}"
[ "$(wc -l < "${WORK}/serve_flight.err")" -eq 1 ] \
  || fail "serve --flight-out rejection must print exactly one line"
[ ! -s "${WORK}/serve_flight.out" ] \
  || fail "serve must not answer requests after a --flight-out rejection"

# serve: the deterministic shed trip (--chaos shed_every=N) answers
# Unavailable with the machine-readable retry hint, and the very next
# stepping request goes through — shedding leaves no residue.
printf '%s\n' \
  '{"op":"create","id":"s1","tenant":"t","dataset":{"kind":"nba","n":60,"seed":9,"missing_rate":0.2,"missing_seed":5},"alpha":0.01,"budget":8,"latency":4}' \
  '{"op":"advance","id":"s1","rounds":1}' \
  '{"op":"advance","id":"s1","rounds":1}' \
  '{"op":"advance","id":"s1","rounds":1}' \
  '{"op":"shutdown"}' \
  | "${SERVE}" --chaos "shed_every=2" --retry-after-ms 75 \
  > "${WORK}/serve_shed.jsonl"
sed -n 3p "${WORK}/serve_shed.jsonl" \
  | grep -q '"ok":false.*"overloaded":true.*"retry_after_ms":75' \
  || fail "the tripped request must answer overloaded with the retry hint"
sed -n 4p "${WORK}/serve_shed.jsonl" | grep -q '"ok":true' \
  || fail "the stepping request after a shed must succeed"

# serve: kill a journaled server between requests, then --recover must
# answer with the op:recover report line and resume the session — the
# post-recovery finish must not error.
STATE="${WORK}/serve-state"
mkdir -p "${STATE}"
printf '%s\n' \
  '{"op":"create","id":"k1","tenant":"t","dataset":{"kind":"nba","n":120,"seed":9,"missing_rate":0.15,"missing_seed":5},"alpha":0.01,"budget":24,"latency":4,"m":5,"checkpoint_every":1}' \
  '{"op":"advance","id":"k1","rounds":2}' \
  | "${SERVE}" --state-dir "${STATE}" > "${WORK}/serve_precrash.jsonl"
# EOF without shutdown/finish plays the crash: the manifest and the
# round-1 checkpoint are on disk, the session was never retired.
printf '%s\n' \
  '{"op":"advance","id":"k1","rounds":100}' \
  '{"op":"finish","id":"k1"}' \
  '{"op":"shutdown"}' \
  | "${SERVE}" --state-dir "${STATE}" --recover \
  > "${WORK}/serve_recover.jsonl"
head -n 1 "${WORK}/serve_recover.jsonl" \
  | grep -q '"ok":true.*"op":"recover".*"sessions_resumed":1' \
  || fail "--recover must lead with the recovery report line"
# The manifest records who is live, not how far they got: one create,
# no advance record (the rounds are in the checkpoints).
head -n 1 "${WORK}/serve_recover.jsonl" | grep -q '"events_replayed":1' \
  || fail "--recover must replay the create record only"
! grep -q '"ok":false' "${WORK}/serve_recover.jsonl" \
  || fail "post-recovery requests must all succeed"

# serve: create refuses an id or tenant outside [A-Za-z0-9._-]. The id
# names checkpoint files ("../" would write outside the session's
# namespace) and both label metrics (a quote would cut the label), so
# nothing may become resident and no file may be written.
UNSAFE="${WORK}/serve-unsafe"
mkdir -p "${UNSAFE}/state"
UNSAFE_QUERY='"dataset":{"kind":"nba","n":120,"seed":9,"missing_rate":0.15,"missing_seed":5},"alpha":0.01,"budget":24,"latency":4,"m":5,"structure":"none","checkpoint_every":1'
printf '%s\n' \
  '{"op":"create","id":"../../escaped","tenant":"acme",'"${UNSAFE_QUERY}"'}' \
  '{"op":"create","id":"u1","tenant":"t\"x",'"${UNSAFE_QUERY}"'}' \
  '{"op":"advance","id":"../../escaped","rounds":2}' \
  '{"op":"advance","id":"u1","rounds":2}' \
  '{"op":"list"}' '{"op":"shutdown"}' \
  | "${SERVE}" --state-dir "${UNSAFE}/state" \
      --metrics-prom "${UNSAFE}/serve.prom" > "${WORK}/serve_unsafe.jsonl"
sed -n 1p "${WORK}/serve_unsafe.jsonl" | grep -q '"ok":false.*id must be' \
  || fail "create must refuse an id outside [A-Za-z0-9._-]"
sed -n 2p "${WORK}/serve_unsafe.jsonl" | grep -q '"ok":false.*tenant must be' \
  || fail "create must refuse a tenant outside [A-Za-z0-9._-]"
sed -n 5p "${WORK}/serve_unsafe.jsonl" | grep -q '"sessions":\[\]' \
  || fail "no session may be admitted with an unsafe id or tenant"
[ -z "$(ls -A "${UNSAFE}/state")" ] \
  || fail "a refused create must write nothing under --state-dir"
[ "$(find "${UNSAFE}" -type f)" = "${UNSAFE}/serve.prom" ] \
  || fail "a refused create must write no file"
grep -q 'tenant="t"' "${UNSAFE}/serve.prom" \
  && fail "a refused tenant must not reach the scrape file"

# serve: a create journaled with a key this build retired (a manifest
# written before the knowledge-compilation keys were deleted) fails
# re-admission and counts in sessions_failed. The journal is rewritten
# in place: r1's create gains "compile", r2's "compile_node_budget".
STATE="${WORK}/serve-retired"
mkdir -p "${STATE}"
printf '%s\n' \
  '{"op":"create","id":"r1","tenant":"t","dataset":{"kind":"nba","n":60,"seed":9},"budget":8,"latency":4,"structure":"none"}' \
  '{"op":"create","id":"r2","tenant":"t","dataset":{"kind":"nba","n":60,"seed":9},"budget":8,"latency":4,"structure":"none"}' \
  | "${SERVE}" --state-dir "${STATE}" > /dev/null
python3 - "${STATE}/serve-manifest.bin" <<'EOF'
import struct, sys, zlib

path = sys.argv[1]
data = open(path, "rb").read()
retired = {b"r1": b'"compile":"auto",', b"r2": b'"compile_node_budget":64,'}


def take_string(buf, pos):
    (size,) = struct.unpack_from("<Q", buf, pos)
    return buf[pos + 8:pos + 8 + size], pos + 8 + size


# "BSMN" u32 | (u32 len | payload | u32 crc32)*; a payload is u8 kind,
# id, tenant, 3 x u64, checkpoint dir, u64, spec blob, detail.
out, pos, patched = bytearray(data[:8]), 8, 0
while pos < len(data):
    (size,) = struct.unpack_from("<I", data, pos)
    payload = data[pos + 4:pos + 4 + size]
    pos += size + 8
    session, at = take_string(payload, 1)
    _, at = take_string(payload, at)
    _, at = take_string(payload, at + 24)
    blob, end = take_string(payload, at + 8)
    if payload[0] == 0 and session in retired:
        blob = b"{" + retired[session] + blob[1:]
        payload = (payload[:at + 8] + struct.pack("<Q", len(blob)) + blob
                   + payload[end:])
        patched += 1
    out += struct.pack("<I", len(payload)) + payload
    out += struct.pack("<I", zlib.crc32(payload))
assert patched == 2, patched
open(path, "wb").write(out)
EOF
printf '%s\n' '{"op":"list"}' '{"op":"shutdown"}' \
  | "${SERVE}" --state-dir "${STATE}" --recover > "${WORK}/serve_retired.jsonl"
head -n 1 "${WORK}/serve_retired.jsonl" \
  | grep -q '"op":"recover".*"sessions_failed":2' \
  || fail "a journaled create with a retired key must fail re-admission"
sed -n 2p "${WORK}/serve_retired.jsonl" | grep -q '"sessions":\[\]' \
  || fail "no session may be admitted from a retired-key create"

echo "cli_test: all checks passed"
