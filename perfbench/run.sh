#!/usr/bin/env bash
# Build vcserve, vcfront and the benchmark from source in this checkout,
# then run the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload deadline_replay --seed 1 --seconds 10 --trace 0
# (BENCHMARK.json holds the full command). The build and every file the
# run writes stay inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
for f in dune-project bin/vcserve.ml bin/vcfront.ml lib/mooc/server.ml; do
  if [ ! -f "$f" ]; then
    echo "perfbench: $f is missing; run from a full checkout of the toolkit" >&2
    exit 2
  fi
done
export DUNE_CACHE=disabled
dune build --root . ./bin/vcserve.exe ./bin/vcfront.exe ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
