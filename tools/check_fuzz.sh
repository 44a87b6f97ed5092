#!/bin/sh
# Bounded differential-fuzz ctest entry: a fixed seed and a small round
# count so the sweep is deterministic and fast enough for every CI run.
# (Longer sweeps: `brospmv fuzz --rounds 500 --seed $RANDOM`, ideally from
# the `asan` CMake preset.)
# Also checks that numeric options reject trailing garbage — the Args
# parser must not read "3abc" as 3 — and that an unknown flag is an error.
# Usage: check_fuzz.sh /path/to/brospmv
set -eu

BROSPMV=${1:?usage: check_fuzz.sh /path/to/brospmv}

echo "== fuzz (fixed seed) =="
"$BROSPMV" fuzz --rounds 12 --seed 2013 --quiet

echo "== malformed numeric option must fail =="
if "$BROSPMV" fuzz --rounds 3abc --seed 2013 2>err.txt; then
  echo "FAIL: --rounds 3abc was accepted"
  exit 1
fi
grep -q "expects an integer" err.txt

echo "== unknown flag or check opt-out must fail =="
# Every fuzz check is always on: a flag that would turn one off, like any
# flag the command does not read, must be a hard error naming the flag.
for flag in no-shard no-decode; do
  if "$BROSPMV" fuzz --rounds 3 --seed 2013 --$flag 2>err.txt; then
    echo "FAIL: --$flag was accepted"
    exit 1
  fi
  grep -q -- "--$flag" err.txt
done
rm -f err.txt

echo "check_fuzz: OK"
