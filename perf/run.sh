#!/usr/bin/env bash
# The end-to-end + per-layer benchmark in one command.
#
#   perf/run.sh                      build, run all four workloads untraced
#   perf/run.sh --trace              ... traced (per-layer metrics, trace files)
#   perf/run.sh --quick              short smoke run of all four
#   perf/run.sh --runs 5             five untraced rounds, seeds 2013..2017
#   perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                    one workload; the last line of standard
#                                    output is its JSON result
#   perf/run.sh --compare A.json... -- B.json...
#                                    medians, quartiles and verdicts per
#                                    workload and metric (perf/report.py)
#
# Builds perf/ (a CMake project over ../src) into build-perf/ at the repo
# root; results go to perf/out/. Exits non-zero when a build fails or any
# output is incorrect.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-perf"
out="$here/out"

if [[ "${1:-}" == "--compare" ]]; then
  shift
  exec python3 -B "$here/report.py" compare --bench "$root/BENCHMARK.json" "$@"
fi

workload="" seed=2013 seconds="" trace=0 quick="" runs=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --quick) quick=1; shift ;;
    --runs) runs="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr: standard output carries only results. The
# Makefile exists only after a configure that succeeded; later builds
# re-configure by themselves when a CMakeLists.txt changes.
configure() { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; }
if ! { { [[ -f "$build/Makefile" ]] || configure; } &&
       cmake --build "$build" -j "$(nproc)"; } >&2; then
  echo "run.sh: build failed" >&2
  exit 3
fi
bin="$build/bro_perf"

args=(--trace "$trace" --out-dir "$out")
[[ -n "$seconds" ]] && args+=(--seconds "$seconds")
[[ -n "$quick" ]] && args+=(--quick)

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --seed "$seed" "${args[@]}"
fi

status=0
for ((r = 0; r < runs; r++)); do
  run_seed=$((seed + r))
  mode="$([[ "$trace" == 1 ]] && echo traced || echo untraced)"
  run_id="$mode-$(date +%Y%m%d-%H%M%S)-s$run_seed"
  mkdir -p "$out/$run_id"
  for w in $("$bin" --list); do
    "$bin" --workload "$w" --seed "$run_seed" "${args[@]}" \
      --out "$out/$run_id/$w.json" || status=1
  done
  python3 -B "$here/report.py" merge --bench "$root/BENCHMARK.json" \
    "$out/$run_id"/*.json > "$out/$run_id.json" || status=1
  echo "run.sh: wrote $out/$run_id.json"
done
exit "$status"
