#!/usr/bin/env bash
# Builds the benchmark and runs one workload on one CPU.
#
#   bash benchmark/run.sh --workload dfs-full --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The simulator runs one process at a time
# but hands the CPU between OS threads at every scheduling point; left to
# migrate across CPUs, those handoffs add about a third to every run and
# make run-to-run times swing by ten per cent on a shared host. Pinning to
# the first CPU this process may use keeps the handoffs on one CPU. The
# host stamp records the CPUs the run was allowed.
#
# One malloc arena: the simulator runs one process at a time, so threads
# never contend for it, and peak RSS no longer depends on which threads
# happened to race for an arena of their own.
set -euo pipefail

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
export MALLOC_ARENA_MAX=1
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/bloom-benchmark"
cpu=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status | cut -d, -f1 | cut -d- -f1)
if command -v taskset >/dev/null && [ -n "$cpu" ]; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "note: taskset unavailable, running unpinned" >&2
exec "$bin" "$@"
