#!/usr/bin/env bash
# Bench smoke: run every mealib-bench harness at reduced sizes with
# --json, validate that each summary parses, and collect the records
# into a schema-v1 BENCH file (default BENCH_pr17.json) — the
# perf-trajectory data point for this PR. Each record carries the
# harness's wall time as `wall_s`.
#
# Also exercises:
#   * the fig14 --trace path (every JSONL trace line parses);
#   * the fig13 --profile path (the Chrome trace-event profile passes
#     `meaperf --check-trace`'s round-trip validation);
#   * the fig11 --jobs path: the design-space sweep runs at full size
#     with --jobs 1 and --jobs 4, the two JSON summaries must be
#     byte-identical (parallelism may change wall time, never modeled
#     outputs), and both wall times are recorded;
#   * the fig11 --prune path: the MEA2xx static-bounds pruner must skip
#     at least 30% of the grid simulations while every Pareto-frontier
#     metric stays exactly equal to the full sweep's;
#   * the perf gate: when a baseline BENCH file exists (BASE env var,
#     default BENCH_pr16.json), `meaperf BASE OUT --wall-report-only`
#     must pass — modeled metrics gate hard, wall metrics (noisy on a
#     1-CPU container) are report-only;
#   * the dual-engine floor: `meaperf --min` requires the fast engine's
#     geomean speedup over the cycle oracle (engine_throughput's
#     fast_over_cycle) to stay >= 5x, baseline or not;
#   * the admission-control floor: tenant_mix's verdict_correctness
#     must stay exactly 1 — every ADMIT/REJECT/UNKNOWN verdict the
#     MEA3xx certifier hands out is confirmed against the interleaved
#     cycle simulation, baseline or not;
#   * the serving-soundness floor: serve_traffic's admission_soundness
#     must stay exactly 1 — every session the certified-admission
#     scheduler completes lands inside the elapsed ceiling its
#     admission proved, baseline or not;
#   * the telemetry path: serve_traffic runs with --telemetry, the
#     Prometheus exposition + JSONL snapshots + lifecycle trace are
#     validated on disk by `meatop --check` (exact counter
#     reconciliation included) and the trace additionally by
#     `meaperf --check-trace`;
#   * the telemetry floors: serve_traffic's slo_conformance and
#     certified_bounds_conformance must both stay exactly 1 — no SLO
#     burned its error budget and no windowed observation escaped its
#     MEA3xx certified interval, baseline or not;
#   * certification at real sizes: serve_traffic also runs over the full
#     class catalogue (no --small, --epochs 4), recorded as
#     `serve_traffic_full`, so every admission call certifies the large
#     sessions the --small mix leaves out; its admission_soundness is
#     floored at 1 like the small record's.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_pr17.json}"
BASE="${BASE:-BENCH_pr16.json}"
JQ="$(command -v jq || true)"

echo "==> cargo build --release -p mealib-bench --bins"
cargo build --release -p mealib-bench --bins

BINS=(
  fig01_library_speedup
  fig09_performance
  fig10_energy
  fig11_design_space
  fig12_chaining_loop
  fig13_stap
  fig14_breakdown
  table05_power_area
  ablations
  compiler_stap
  methodology_validation
  engine_throughput
  tenant_mix
  serve_traffic
)

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

records="$tmpdir/records.jsonl"
: > "$records"

now_ns() { date +%s%N; }
elapsed_s() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'; }

tel_prefix="$tmpdir/serve_tel"

for bin in "${BINS[@]}"; do
  # serve_traffic runs telemetered so the BENCH record carries the
  # sketch percentiles and both conformance metrics.
  extra=()
  [[ "$bin" == "serve_traffic" ]] && extra=(--telemetry "$tel_prefix")
  echo "==> $bin --small --json ${extra[*]}"
  t0="$(now_ns)"
  line="$(./target/release/$bin --small --json "${extra[@]}" | tail -n 1)"
  wall="$(elapsed_s "$t0" "$(now_ns)")"
  if [[ -n "$JQ" ]]; then
    echo "$line" | "$JQ" -e '.bench and (.metrics | type == "object")' > /dev/null \
      || { echo "error: $bin summary failed validation: $line" >&2; exit 1; }
  fi
  # Attach the harness wall time to the record (schema v1 field).
  echo "${line%\}},\"wall_s\":${wall}}" >> "$records"
done

# Full catalogue at a few epochs: the certify path at the sizes where
# its cost lives. A distinct bench name keeps it apart from the --small
# record in the perf gate.
echo "==> serve_traffic --json --epochs 4 (full catalogue)"
t0="$(now_ns)"
line="$(./target/release/serve_traffic --json --epochs 4 | tail -n 1)"
wall="$(elapsed_s "$t0" "$(now_ns)")"
line="${line/\"bench\":\"serve_traffic\"/\"bench\":\"serve_traffic_full\"}"
[[ "$line" == *'"bench":"serve_traffic_full"'* ]] \
  || { echo "error: full-size serve_traffic summary failed validation: $line" >&2; exit 1; }
echo "${line%\}},\"wall_s\":${wall}}" >> "$records"

echo "==> fig14_breakdown --small --trace (JSONL validation)"
trace="$tmpdir/fig14_trace.jsonl"
./target/release/fig14_breakdown --small --trace "$trace" > /dev/null
[[ -s "$trace" ]] || { echo "error: trace file is empty" >&2; exit 1; }
if [[ -n "$JQ" ]]; then
  "$JQ" -e '.type == "span" or .type == "count"' "$trace" > /dev/null \
    || { echo "error: trace contains a malformed line" >&2; exit 1; }
fi
echo "trace OK: $(wc -l < "$trace") events"

echo "==> meatop --check (telemetry artifact validation + exact reconciliation)"
for f in "$tel_prefix.prom" "$tel_prefix.snapshots.jsonl" "$tel_prefix.trace.json" "$tel_prefix.alerts.jsonl"; do
  [[ -f "$f" ]] || { echo "error: serve_traffic --telemetry did not write $f" >&2; exit 1; }
done
./target/release/meatop --check "$tel_prefix" \
  || { echo "error: telemetry artifacts failed meatop --check" >&2; exit 1; }
./target/release/meaperf --check-trace "$tel_prefix.trace.json" \
  || { echo "error: lifecycle trace failed meaperf --check-trace" >&2; exit 1; }

echo "==> fig13_stap --small --profile (Perfetto trace validation)"
profile="$tmpdir/fig13_stap.trace.json"
./target/release/fig13_stap --small --profile "$profile" > /dev/null
[[ -s "$profile" ]] || { echo "error: profile file is empty" >&2; exit 1; }
./target/release/meaperf --check-trace "$profile" \
  || { echo "error: fig13 profile failed trace validation" >&2; exit 1; }

# Full-size fig11 at --jobs 1 vs --jobs 4: modeled outputs must not
# depend on the worker count.
echo "==> fig11_design_space --json --jobs 1 vs --jobs 4 (determinism + wall time)"
t0="$(now_ns)"
jobs1="$(./target/release/fig11_design_space --json --jobs 1 | tail -n 1)"
t1="$(now_ns)"
jobs4="$(./target/release/fig11_design_space --json --jobs 4 | tail -n 1)"
t2="$(now_ns)"
if [[ "$jobs1" != "$jobs4" ]]; then
  echo "error: fig11 summary differs between --jobs 1 and --jobs 4" >&2
  echo "  jobs1: $jobs1" >&2
  echo "  jobs4: $jobs4" >&2
  exit 1
fi
jobs1_wall_s="$(elapsed_s "$t0" "$t1")"
jobs4_wall_s="$(elapsed_s "$t1" "$t2")"
speedup_wall="$(awk -v a="$jobs1_wall_s" -v b="$jobs4_wall_s" 'BEGIN { printf "%.3f", (b > 0) ? a / b : 0 }')"
echo "fig11 jobs scaling OK: identical summaries; jobs1 ${jobs1_wall_s}s, jobs4 ${jobs4_wall_s}s (${speedup_wall}x)"
# All three keys are wall-derived, so they carry wall names and the
# perf gate applies its (looser, demotable) wall threshold to them.
printf '{"bench":"fig11_jobs_scaling","metrics":{"jobs1_wall_s":%s,"jobs4_wall_s":%s,"speedup_wall":%s}}\n' \
  "$jobs1_wall_s" "$jobs4_wall_s" "$speedup_wall" >> "$records"

# Full-size fig11 with the MEA2xx static-bounds pruner: the frontier
# metrics must match the full sweep's exactly, and at least 30% of the
# grid must be provably dominated (skipped without simulation).
echo "==> fig11_design_space --json --prune (frontier identity + prune floor)"
t0="$(now_ns)"
pruned="$(./target/release/fig11_design_space --json --prune | tail -n 1)"
prune_wall_s="$(elapsed_s "$t0" "$(now_ns)")"

# Pull "key":value out of a one-line JSON summary without requiring jq.
metric() { grep -o "\"$2\":[^,}]*" <<<"$1" | head -n 1 | cut -d: -f2; }

for key in fft_frontier_points fft_frontier_gflops_sum fft_frontier_power_sum \
           fft_frontier_engine_sum spmv_frontier_points spmv_frontier_gflops_sum \
           spmv_frontier_power_sum spmv_frontier_engine_sum; do
  full_v="$(metric "$jobs1" "$key")"
  prune_v="$(metric "$pruned" "$key")"
  if [[ -z "$full_v" || -z "$prune_v" || "$full_v" != "$prune_v" ]]; then
    echo "error: fig11 frontier metric $key differs under --prune" >&2
    echo "  full:  ${full_v:-missing}" >&2
    echo "  prune: ${prune_v:-missing}" >&2
    exit 1
  fi
done

# Counts are serialized as floats ("46.0"); truncate for bash arithmetic.
grid="$(metric "$pruned" "grid_points")"; grid="${grid%%.*}"
fft_pruned="$(metric "$pruned" "fft_pruned")"
spmv_pruned="$(metric "$pruned" "spmv_pruned")"
pruned_total=$(( ${fft_pruned%%.*} + ${spmv_pruned%%.*} ))
if (( pruned_total * 10 < 3 * grid * 2 )); then
  echo "error: pruner skipped only $pruned_total of $((grid * 2)) simulations (<30%)" >&2
  exit 1
fi
echo "fig11 prune OK: frontier identical; $pruned_total/$((grid * 2)) simulations pruned"
echo "${pruned%\}},\"wall_s\":${prune_wall_s}}" >> "$records"

if [[ -n "$JQ" ]]; then
  "$JQ" -s '{schema_version: 1, generated_by: "scripts/bench_smoke.sh", benches: .}' "$records" > "$OUT"
else
  {
    echo '{"schema_version": 1, "generated_by": "scripts/bench_smoke.sh", "benches": ['
    paste -sd, "$records"
    echo ']}'
  } > "$OUT"
fi

# The dual-engine speedup is an absolute floor, not a trajectory
# comparison, so it gates even without a baseline (self-compare).
MIN_FLOORS=(--min "engine_throughput.fast_over_cycle=5"
            --min "tenant_mix.verdict_correctness=1"
            --min "serve_traffic.admission_soundness=1"
            --min "serve_traffic.slo_conformance=1"
            --min "serve_traffic.certified_bounds_conformance=1"
            --min "serve_traffic_full.admission_soundness=1")
if [[ -f "$BASE" && "$BASE" != "$OUT" ]]; then
  echo "==> meaperf $BASE $OUT (modeled metrics gate hard; wall report-only; floors)"
  ./target/release/meaperf --wall-report-only "${MIN_FLOORS[@]}" "$BASE" "$OUT" \
    || { echo "error: perf gate failed against $BASE" >&2; exit 1; }
else
  echo "note: no baseline $BASE — checking the absolute floors only"
  ./target/release/meaperf --wall-report-only "${MIN_FLOORS[@]}" "$OUT" "$OUT" \
    || { echo "error: absolute metric floor failed" >&2; exit 1; }
fi

echo "bench_smoke: OK — wrote $OUT"
