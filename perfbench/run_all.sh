#!/usr/bin/env bash
# Run every workload of the benchmark, end-to-end and traced, for one seed.
# Usage (from the repository root): bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
for workload in line_decay ball_sweep curved_dense; do
    for trace in 0 1; do
        echo "== $workload trace $trace"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
