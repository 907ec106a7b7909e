#!/usr/bin/env bash
# Runs the pass-timing microbenchmarks and records google-benchmark JSON at
# the repo root (BENCH_pass_timing.json) so the perf trajectory is tracked
# in version control from PR to PR.
#
# The benchmarks build in a dedicated Release tree (build-bench/) — never in
# the default RelWithDebInfo/debug developer tree — and the script refuses
# to publish JSON whose context indicates a debug configuration. Note: the
# Debian-packaged libbenchmark reports "library_build_type": "debug"
# unconditionally (the *library* was compiled without NDEBUG), so the
# binary additionally records its own "epre_build_type"/"epre_assertions"
# context, which is what gates publication.
#
# Usage: scripts/bench.sh [extra google-benchmark flags]
#   e.g. scripts/bench.sh --benchmark_filter='BM_PipelineEndToEnd'
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
OUT=${OUT:-BENCH_pass_timing.json}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_pass_timing >/dev/null

TMP_OUT=$(mktemp "${TMPDIR:-/tmp}/bench_pass_timing.XXXXXX.json")
trap 'rm -f "$TMP_OUT"' EXIT

"$BUILD_DIR"/bench/bench_pass_timing \
  --benchmark_out="$TMP_OUT" \
  --benchmark_out_format=json \
  "$@"

refuse() {
  echo "error: $1 — refusing to write $OUT" >&2
  echo "       (use scripts/bench.sh, which builds Release in build-bench/)" >&2
  exit 1
}

# A refusal gate that diffs against a committed baseline must fail LOUDLY
# when that baseline file is missing — a silently regenerated-from-nothing
# baseline would make the gate vacuously green and hide a regression.
# First-time bootstrap (a brand-new BENCH_*.json) is an explicit opt-in.
require_baseline() {
  [ -f "$1" ] && return 0
  if [ "${EPRE_BOOTSTRAP_BASELINES:-0}" = "1" ]; then
    echo "warning: baseline $1 is missing; bootstrapping a fresh one" >&2
    return 0
  fi
  echo "error: refusal-gate baseline $1 is missing" >&2
  echo "       The gate that diffs against it cannot run; restore the" >&2
  echo "       committed file, or re-run with EPRE_BOOTSTRAP_BASELINES=1" >&2
  echo "       to intentionally create a new baseline." >&2
  exit 1
}

grep -q '"epre_build_type": "Release"' "$TMP_OUT" ||
  refuse "benchmark binary was not built with -DCMAKE_BUILD_TYPE=Release"
grep -q '"epre_assertions": "disabled"' "$TMP_OUT" ||
  refuse "benchmark binary was built with assertions enabled (no NDEBUG)"
if grep -q '"library_build_type": "debug"' "$TMP_OUT" &&
   ! grep -q '"epre_build_type": "Release"' "$TMP_OUT"; then
  refuse "google-benchmark reports a debug build"
fi

# Compile-time scaling gate: the log-log slope of BM_PipelineEndToEnd real
# time from Arg 128 to Arg 512 loop nests (1 = linear, 2 = quadratic). A
# slope holds across hosts, unlike absolute milliseconds. The bound is a
# constant: 1.30, the slope measured when the baseline tail (sccp, dce,
# coalesce) became linear, plus 0.1; republishing cannot move it. Most of
# the growth left is pre. A run without both rows (e.g. a
# --benchmark_filter run) cannot be checked and is refused as well.
#
# One run's slope spreads by about +-0.2 on a shared host (1-2 iterations
# at Arg 512), so the gate takes the median of SLOPE_REPS paired
# repetitions of the two rows, measured in a run of their own.
COMPILE_SLOPE_MAX=1.40
SLOPE_REPS=5
for ARG in 128 512; do
  grep -q "\"name\": \"BM_PipelineEndToEnd/$ARG\"" "$TMP_OUT" ||
    refuse "the run lacks BM_PipelineEndToEnd/$ARG, which the slope gate needs"
done

TMP_SLOPE=$(mktemp "${TMPDIR:-/tmp}/bench_slope.XXXXXX.json")
trap 'rm -f "$TMP_OUT" "$TMP_SLOPE"' EXIT

"$BUILD_DIR"/bench/bench_pass_timing \
  --benchmark_filter='^BM_PipelineEndToEnd/(128|512)$' \
  --benchmark_repetitions="$SLOPE_REPS" \
  --benchmark_out="$TMP_SLOPE" \
  --benchmark_out_format=json >/dev/null

# Repetition K of Arg 128 pairs with repetition K of Arg 512; the
# aggregate rows (_mean, _median, ...) do not match the exact names.
COMPILE_SLOPES=$(awk '
  /"name": "BM_PipelineEndToEnd\/128"/ { want = 1 }
  /"name": "BM_PipelineEndToEnd\/512"/ { want = 2 }
  /"real_time":/ && want {
    gsub(/[^0-9.eE+-]/, "", $2)
    if (want == 1) small[ns++] = $2; else big[nb++] = $2
    want = 0
  }
  END {
    for (K = 0; K < ns && K < nb; ++K)
      if (small[K] + 0 > 0)
        printf "%.3f ", log(big[K] / small[K]) / log(4)
  }' "$TMP_SLOPE")
COMPILE_SLOPE=$(echo "$COMPILE_SLOPES" | tr ' ' '\n' | awk NF | sort -g |
  awk -v reps="$SLOPE_REPS" '
    { s[n++] = $1 }
    END {
      if (n < reps) { print "nan"; exit }
      if (n % 2) print s[(n - 1) / 2]
      else printf "%.3f", (s[n / 2 - 1] + s[n / 2]) / 2
    }')
rm -f "$TMP_SLOPE"
echo "BM_PipelineEndToEnd slopes 128 -> 512: ${COMPILE_SLOPES}"
echo "BM_PipelineEndToEnd median slope of ${SLOPE_REPS}: ${COMPILE_SLOPE} (gate: <= ${COMPILE_SLOPE_MAX})"
awk -v s="$COMPILE_SLOPE" -v max="$COMPILE_SLOPE_MAX" \
  'BEGIN { exit !(s != "nan" && s + 0 > 0 && s + 0 <= max + 0) }' ||
  refuse "BM_PipelineEndToEnd median slope from Arg 128 to 512 is ${COMPILE_SLOPE}, over ${COMPILE_SLOPE_MAX}"

mv "$TMP_OUT" "$OUT"
trap - EXIT
echo "wrote $OUT"

# Alongside the microbenchmark timings, record the instrumented suite
# statistics: per-pass wall-clock aggregate, every named counter, and
# per-pass remark counts for all four optimization levels in one JSON
# document (suite_report also backs the CI observability artifacts).
# The same run writes the per-routine dynamic profile document
# (epre-dynamic-profile-v1): BENCH_dynamic_profile.json is the committed
# baseline the CI operation-count regression gate diffs against with
# `epre-profdiff -gate`. Dynamic ILOC operation counts are deterministic
# (fixed suite inputs, integer counting), so the baseline only changes
# when the optimizer's output changes — regenerate it with this script
# and commit the new file alongside the change that moved the counts.
STATS_OUT=${STATS_OUT:-BENCH_suite_stats.json}
PROFILE_OUT=${PROFILE_OUT:-BENCH_dynamic_profile.json}
# CI's epre-profdiff gate diffs against the committed copy of this file;
# regenerating it from nothing would silently un-anchor that gate.
require_baseline "$PROFILE_OUT"
cmake --build "$BUILD_DIR" -j --target suite_report >/dev/null
"$BUILD_DIR"/examples/suite_report -o="$STATS_OUT" -profile-out="$PROFILE_OUT"

# Speculative-PRE baseline: the suite rerun with -strategy=speculative,
# each routine self-trained on its own driver inputs
# (docs/speculative-pre.md). CI diffs a regenerated copy against
# the LCM profile with `epre-profdiff -gate -min-improved=5`, and against
# this committed baseline for drift. Publication is refused unless
# speculation still strictly improves >= 5 routines over lazy code motion
# without regressing any beyond 2% — the ISSUE 8 acceptance floor.
SPECULATIVE_OUT=${SPECULATIVE_OUT:-BENCH_speculative.json}
require_baseline "$SPECULATIVE_OUT"
cmake --build "$BUILD_DIR" -j --target epre_profdiff >/dev/null

TMP_SPEC=$(mktemp "${TMPDIR:-/tmp}/bench_speculative.XXXXXX.json")
trap 'rm -f "$TMP_SPEC"' EXIT

"$BUILD_DIR"/examples/suite_report -speculative-out="$TMP_SPEC" \
  -o=/dev/null >/dev/null

"$BUILD_DIR"/examples/epre-profdiff "$PROFILE_OUT" "$TMP_SPEC" \
  -gate -tolerance=2 -min-improved=5 ||
  refuse "speculative PRE no longer beats LCM on >= 5 routines within tolerance"

mv "$TMP_SPEC" "$SPECULATIVE_OUT"
trap - EXIT
echo "wrote $SPECULATIVE_OUT"

# Interpreter: BENCH_interp.json records the predecoded direct-threaded
# engine (plus predecode cost, profiled overhead, and fuzz-execution
# throughput). Publication is refused when BM_Interpret/64 real time
# exceeds a fixed anchor by more than 25%. The anchor is the 591.3 us
# figure recorded for the engine when the legacy tree-walker was deleted;
# it is a constant, not read back from the file this step overwrites, so
# republishing cannot move the bound.
INTERP_OUT=${INTERP_OUT:-BENCH_interp.json}
INTERP_ANCHOR_US=591.3
cmake --build "$BUILD_DIR" -j --target bench_interp >/dev/null

TMP_INTERP=$(mktemp "${TMPDIR:-/tmp}/bench_interp.XXXXXX.json")
trap 'rm -f "$TMP_INTERP"' EXIT

"$BUILD_DIR"/bench/bench_interp \
  --benchmark_out="$TMP_INTERP" \
  --benchmark_out_format=json

grep -q '"epre_build_type": "Release"' "$TMP_INTERP" ||
  refuse "bench_interp was not built with -DCMAKE_BUILD_TYPE=Release"
grep -q '"epre_assertions": "disabled"' "$TMP_INTERP" ||
  refuse "bench_interp was built with assertions enabled (no NDEBUG)"

INTERP_NOW=$(awk '
  /"name": "BM_Interpret\/64"/ { want = 1 }
  /"real_time":/ && want {
    gsub(/[^0-9.eE+-]/, "", $2)
    print $2
    exit
  }' "$TMP_INTERP")

echo "BM_Interpret/64: ${INTERP_NOW} us (anchor: ${INTERP_ANCHOR_US} us, gate: <= +25%)"
awk -v now="$INTERP_NOW" -v base="$INTERP_ANCHOR_US" \
  'BEGIN { exit !(now + 0 > 0 && now <= base * 1.25) }' ||
  refuse "BM_Interpret/64 is ${INTERP_NOW} us, over 1.25x the ${INTERP_ANCHOR_US} us anchor"

mv "$TMP_INTERP" "$INTERP_OUT"
trap - EXIT
echo "wrote $INTERP_OUT"

# Compile-as-a-service throughput: BENCH_serve.json records cold
# single-shot compiles/sec against warm-cache replay of the duplicate-heavy
# suite trace (docs/serving.md). Publication is refused unless warm replay
# sustains >= 5x cold throughput (the ISSUE 7 acceptance floor) — a cache
# regression cannot silently overwrite the record.
SERVE_OUT=${SERVE_OUT:-BENCH_serve.json}
cmake --build "$BUILD_DIR" -j --target bench_serve >/dev/null

TMP_SERVE=$(mktemp "${TMPDIR:-/tmp}/bench_serve.XXXXXX.json")
trap 'rm -f "$TMP_SERVE"' EXIT

"$BUILD_DIR"/bench/bench_serve \
  --benchmark_out="$TMP_SERVE" \
  --benchmark_out_format=json

grep -q '"epre_build_type": "Release"' "$TMP_SERVE" ||
  refuse "bench_serve was not built with -DCMAKE_BUILD_TYPE=Release"
grep -q '"epre_assertions": "disabled"' "$TMP_SERVE" ||
  refuse "bench_serve was built with assertions enabled (no NDEBUG)"

SERVE_SPEEDUP=$(awk '
  /"name": "BM_ServeColdSingleShot"/ { want = 1 }
  /"name": "BM_ServeWarmReplay"/     { want = 2 }
  /"items_per_second":/ && want {
    gsub(/[^0-9.eE+-]/, "", $2)
    if (want == 1) cold = $2; else warm = $2
    want = 0
  }
  END {
    if (cold == "" || warm == "" || cold + 0 == 0) { print "nan"; exit }
    printf "%.2f", warm / cold
  }' "$TMP_SERVE")

echo "serve warm-replay speedup: ${SERVE_SPEEDUP}x (warm items/sec / cold items/sec)"
awk -v s="$SERVE_SPEEDUP" 'BEGIN { exit !(s + 0 >= 5.0) }' ||
  refuse "warm-cache replay is only ${SERVE_SPEEDUP}x cold throughput (gate: >= 5x)"

# Telemetry overhead on the all-hit fast path (docs/observability.md
# budgets it at <= 3%; recorded in EXPERIMENTS.md). Informational — the
# number is printed so a regeneration that blows the budget is visible in
# the log, but single-run noise on a sub-microsecond path is too large to
# gate publication on.
TEL_OVERHEAD=$(awk '
  /"name": "BM_ServeWarmReplay"/            { want = 1 }
  /"name": "BM_ServeWarmReplayNoTelemetry"/ { want = 2 }
  /"items_per_second":/ && want {
    gsub(/[^0-9.eE+-]/, "", $2)
    if (want == 1) on = $2; else off = $2
    want = 0
  }
  END {
    if (on == "" || off == "" || on + 0 == 0) { print "nan"; exit }
    printf "%.2f", (off / on - 1) * 100
  }' "$TMP_SERVE")
echo "serve telemetry overhead on warm replay: ${TEL_OVERHEAD}% (budget: <= 3%)"

mv "$TMP_SERVE" "$SERVE_OUT"
trap - EXIT
echo "wrote $SERVE_OUT"
