#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — one row per (workload, metric)
# of two result files written with `run.sh --json`: both medians and
# quartiles, the ratio B/A with its base, and a verdict
# (improved | unchanged | regressed | unresolved). Exits non-zero when
# any row regressed.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$@"
