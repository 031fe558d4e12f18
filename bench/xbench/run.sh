#!/usr/bin/env bash
# Builds xbench from the checkout this script sits in and runs it with the
# given arguments, e.g.
#   bash bench/xbench/run.sh --workload serve-socket --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the result stays the last line of stdout.
# Without the repository's sources next to it, it fails before building.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "xbench: no dune-project or lib/ in $(pwd); run from a full checkout" >&2
  exit 2
fi
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bench/xbench/xbench.exe 1>&2
exec ./_build/default/bench/xbench/xbench.exe "$@"
