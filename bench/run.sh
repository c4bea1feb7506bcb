#!/usr/bin/env bash
# Builds the benchmark inside the checkout, build cache included, and
# runs it with the arguments given. Run from the repository root:
#   bash bench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
