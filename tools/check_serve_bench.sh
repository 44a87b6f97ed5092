#!/bin/sh
# End-to-end smoke of the serving layer through the CLI: a synchronous
# (deterministic) run, a threaded run, and a forced-format run on a pinned
# cache, each of which must serve every request and report its queue-wait
# and execute percentiles; an unknown --format or flag, or a numeric flag
# without its value, must fail.
# Usage: check_serve_bench.sh /path/to/brospmv
set -eu

BROSPMV=${1:?usage: check_serve_bench.sh /path/to/brospmv}

echo "== serve-bench (synchronous, deterministic) =="
"$BROSPMV" serve-bench --threads 0 --clients 1 --requests 48 --matrices 2 \
    --scale 0.02 --seed 2013 >out.txt
cat out.txt
grep -q "served    48 / 48 requests" out.txt

echo "== serve-bench (dispatch threads) =="
"$BROSPMV" serve-bench --threads 2 --clients 3 --requests 40 --matrices 2 \
    --scale 0.02 --seed 7 >out.txt
cat out.txt
grep -q "served    120 / 120 requests" out.txt
grep -q "wait      p50=" out.txt
grep -q "execute   p50=" out.txt

echo "== serve-bench (forced format, pinned cache) =="
"$BROSPMV" serve-bench --threads 1 --clients 2 --requests 30 --matrices 3 \
    --scale 0.02 --format BRO-ELL --cache-mb 1 --seed 11 >out.txt
cat out.txt
grep -q "served    60 / 60 requests" out.txt
grep -q "latency   BRO-ELL" out.txt

echo "== unknown format must fail =="
if "$BROSPMV" serve-bench --format NO-SUCH 2>err.txt; then
  echo "FAIL: --format NO-SUCH was accepted"
  exit 1
fi
grep -q "unknown --format" err.txt

echo "== unknown flag must fail =="
# A removed or mistyped flag must be a hard error naming the flag, never a
# silent fall-back to the default.
for flag in pools no-such-flag; do
  if "$BROSPMV" serve-bench --$flag 4 2>err.txt; then
    echo "FAIL: --$flag was accepted"
    exit 1
  fi
  grep -q -- "--$flag" err.txt
done

echo "== numeric flag without a value must fail =="
if "$BROSPMV" serve-bench --threads 0 --clients 1 --requests 8 --matrices 1 \
    --scale 0.02 --max-batch >out.txt 2>err.txt; then
  echo "FAIL: --max-batch without a value was accepted"
  exit 1
fi
grep -q -- "--max-batch" err.txt
rm -f out.txt err.txt

echo "check_serve_bench: OK"
