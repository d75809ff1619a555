#!/usr/bin/env bash
# Runs every workload once, untraced, for the run_seconds of
# BENCHMARK.json, and prints one line per workload: its name, then the
# result object (every end-to-end metric with its unit, and the
# attempted and failed operation counts). Reference figures go to
# stderr. Run from the repository root:
#
#   bash ctlbench/all.sh [--seed N]
set -euo pipefail

seed=1
if [ $# -eq 2 ] && [ "$1" = --seed ]; then
	seed=$2
elif [ $# -ne 0 ]; then
	echo "usage: bash ctlbench/all.sh [--seed N]" >&2
	exit 2
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for w in deploy-backlog fleet-flat fleet-sharded; do
	result=$(bash ctlbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
	printf '%s %s\n' "$w" "$result"
done
