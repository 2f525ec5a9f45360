#!/usr/bin/env bash
# Build the benchmark from source and run one workload.  From the
# repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line on stdout stays the
# result object.
set -euo pipefail
dune build --root . --cache=disabled perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
