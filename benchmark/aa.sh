#!/usr/bin/env bash
# Runs one set for the A/A report: every workload at seeds 1..N (default 10),
# appending each result to the given JSON-lines file. Two sets of the same
# commit compared with -compare show what the benchmark can and cannot resolve.
#   bash benchmark/aa.sh /tmp/setA.jsonl [N] [trace]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$1"; n="${2:-10}"; trace="${3:-0}"
for seed in $(seq 1 "$n"); do
  for w in nvm-engines disk-engines wire cluster; do
    bash "$here/run.sh" -workload "$w" -seed "$seed" -trace "$trace" -out "$out" >/dev/null 2>&1
  done
done
