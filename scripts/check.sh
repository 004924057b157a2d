#!/usr/bin/env bash
# Pre-merge check: the tier-1 test suite, then one traced benchmark run on
# resolve-small. The benchmark run rebuilds perfbench/ against the current
# sources, so an API change that breaks the benchmark fails here, and it
# checks that the traced (stage-by-stage) and untraced match sets agree.
#
#   scripts/check.sh
#
# Exits non-zero if a test fails, the benchmark does not build or run, or
# the benchmark reports an incorrect or failed operation.
set -euo pipefail
cd "$(dirname "$0")/.."

export COURSIER_MODE=offline
export SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx4g}"
export SPARK_GRAFT_CPUS="$(env -u OMP_NUM_THREADS nproc)"
export SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)"
export SPARK_LOCAL_DIRS="${SPARK_LOCAL_DIRS:-/tmp/spark-local}"

timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true Test/compile
timeout -k 10 2670 sbt --batch -Dsbt.log.noformat=true "testOnly *"

out="$(python3 perfbench/run.py --workload resolve-small --seed 1 --seconds 1 --trace 1)"
printf '%s\n' "$out" | tail -n 2
printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if not r["correct"] or r["failed"] != 0:
    sys.exit("benchmark: traced run reported an incorrect or failed operation")
print("benchmark: correct, traced and untraced match sets agree")
'
