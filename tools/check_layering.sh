#!/bin/sh
# Layering guard: the host engine and the serving stack above it must not
# call into the GPU simulator (bro_sim_kernels, bro_simulate). Fails when
# `nm` lists an undefined bro::sim:: or sim_spmv symbol in a library given.
# Usage: check_layering.sh libbro_engine.a libbro_serve.a libbro_net.a
set -eu

status=0
for lib in "$@"; do
  if nm -C --undefined-only "$lib" | grep -E 'bro::sim::|sim_spmv'; then
    echo "FAIL: $(basename "$lib") references the simulator (above)"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "check_layering: OK ($# libraries)"
exit "$status"
