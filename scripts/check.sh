#!/bin/sh
# Repository check: build, full test suite, the examples, and a quick
# solver-kernel bench smoke run (same entry points CI uses).
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== examples =="
for ex in quickstart msb_failure_drill elastic_harvest network_affinity storage_quorum; do
  echo "-- examples/$ex.exe"
  ./_build/default/examples/$ex.exe > /dev/null
done

echo "== bench smoke (kernels --quick, incl. continuous-loop + large rows) =="
dune exec bench/main.exe -- --quick kernels

# the region-scale and tier-1 reactive batteries again at the full
# 10^6-server preset (the quick runtest above covers the reduced sweep and
# skips the scale-gated reactive pins); kept separate so a laptop run can
# skip them by exporting RAS_SCALE_TESTS=quick first
if [ "${RAS_SCALE_TESTS:-full}" = "full" ]; then
  echo "== region-scale sweep at 10^6 servers (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test region_scale
  echo "== tier-1 reactive battery at 10^6 servers (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test reactive
fi

echo "== check OK =="
