#!/bin/sh
# Entropy-coding gate as a ctest entry: BRO-ANS must beat BRO-ELL's mean
# index space savings on Test Set 1, and its dispatched decode throughput
# must stay within the slowdown budget (geomean over the suite). The
# budget defaults to the binary's: 1.5x when the active ISA is AVX2 (the
# vector tANS decoder — the design target is the budget), 4x on scalar/
# SSE4 hosts still decoding on the chain-interleaved scalar path, which
# now reads 3.7-4.1x against that budget (ROADMAP open item 7 tracks the
# drift). Override with BRO_ANS_MAX_SLOWDOWN to tighten or loosen locally.
# Usage: check_entropy_bench.sh /path/to/brospmv
set -eu

BROSPMV=${1:?usage: check_entropy_bench.sh /path/to/brospmv}

echo "== entropy gate (savings + decode A/B) =="
if [ -n "${BRO_ANS_MAX_SLOWDOWN:-}" ]; then
  "$BROSPMV" entropy-bench --scale 0.0625 --min-time 0.01 --gate \
      --max-slowdown "$BRO_ANS_MAX_SLOWDOWN"
else
  "$BROSPMV" entropy-bench --scale 0.0625 --min-time 0.01 --gate
fi

echo "check_entropy_bench: OK"
