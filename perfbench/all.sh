#!/bin/sh
# Run every benchmark workload in turn.
# Usage: bash perfbench/all.sh [seed] [seconds] [trace]
set -e
cd "$(dirname "$0")/.."
for workload in characterize attacks sweep_cached; do
    echo "== $workload"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" \
        --seconds "${2:-15}" --trace "${3:-0}"
done
