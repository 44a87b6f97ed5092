#!/bin/sh
# Blocked-format gate as a ctest entry: on the truss-FEM workload (Test
# Set 3) BRO-BCSR must beat BRO-ELL's mean fill-adjusted index savings AND
# hold the geomean index-decode speedup floor (1.5x rows/s — the
# one-index-per-block stream decodes ~block-area fewer symbols per matrix
# row, so the floor holds on every ISA). The gate also sweeps the
# adversarial battery bitwise across scalar/SSE4/AVX2 at every forced
# shape, and asserts no Test Set 1 matrix auto-selects the blocked
# format. Override the floor with BRO_BCSR_MIN_SPEEDUP.
# Usage: check_block_bench.sh /path/to/brospmv
set -eu

BROSPMV=${1:?usage: check_block_bench.sh /path/to/brospmv}

echo "== block gate (savings + decode A/B + parity + auto-select) =="
if [ -n "${BRO_BCSR_MIN_SPEEDUP:-}" ]; then
  "$BROSPMV" block-bench --scale 0.0625 --min-time 0.01 --gate \
      --min-speedup "$BRO_BCSR_MIN_SPEEDUP"
else
  "$BROSPMV" block-bench --scale 0.0625 --min-time 0.01 --gate
fi

echo "check_block_bench: OK"
