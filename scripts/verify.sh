#!/usr/bin/env bash
# Full local verification: release build, test suite, and lints.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The suite runs twice: sequential and multi-threaded kernel dispatch.
# Parallel kernels are bit-identical by construction, so both runs must
# pass with no test seeing a different result. --no-fail-fast keeps a
# failing crate from hiding the results of the crates after it.
echo "==> cargo test -q --no-fail-fast (PMM_THREADS=1)"
PMM_THREADS=1 cargo test -q --no-fail-fast

echo "==> cargo test -q --no-fail-fast (PMM_THREADS=4)"
PMM_THREADS=4 cargo test -q --no-fail-fast

# Tests share no mutable process state (fault plans are per-thread
# scopes), so the suite must pass every time at a high test-thread
# count, not just usually.
echo "==> cargo test -q --no-fail-fast -- --test-threads=8 (5 runs, zero failures)"
for run in 1 2 3 4 5; do
  echo "  -- run $run/5"
  cargo test -q --no-fail-fast -- --test-threads=8
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> pmm-audit (workspace invariant lint)"
cargo run --release -q -p pmm-audit

echo "==> pmm-audit --fixtures (rule engine pinned against seeded violations)"
cargo run --release -q -p pmm-audit -- --fixtures

echo "==> pmm-audit --race (lock-order graph, guard-across-blocking, atomics orderings)"
cargo run --release -q -p pmm-audit -- --race

echo "==> pmm-audit --check must-fail (seeded lock-order cycle fixture must be caught)"
if cargo run --release -q -p pmm-audit -- --check crates/audit/fixtures/lock_order.rs; then
  echo "ERROR: race auditor passed a fixture with a seeded lock-order cycle"
  exit 1
fi

echo "==> thread-scaling smoke (kernels bit-identical across worker counts)"
cargo run --release -q -p pmm-bench --bin par_scaling

echo "==> kernel bench (tiled>=2x scalar at 256^3, dispatch-threshold guard, int8 HR@10 within 1%, >10% speedup regression vs recorded BENCH_kernel.json fails)"
cargo run --release -q -p pmm-bench --bin kernel_bench -- --gate

echo "==> chaos smoke (fault injection + pre-backward autograd-graph audit on every step)"
cargo run --release -q -p pmm-bench --bin chaos_smoke -- --scale tiny --epochs 3 --audit-graph

echo "==> serve chaos (scripted: shedding, ladder, deadlines, thread-count parity)"
cargo run --release -q -p pmm-bench --bin serve_chaos -- --scale tiny

echo "==> serve chaos smoke (custom fault plan: zero panics, tier-tagged responses)"
cargo run --release -q -p pmm-bench --bin serve_chaos -- --scale tiny \
  --fault-plan "err@0,slow@4,err@7,err@8,slow@13"

echo "==> trace smoke (causal chains, stage histograms, clean SLO gate, metrics exposition)"
cargo run --release -q -p pmm-bench --bin trace_smoke -- --scale tiny \
  --slo-gate --metrics BENCH_metrics.prom

echo "==> trace smoke chaos (injected stalls must blow the miss-rate budget and fail the gate)"
if cargo run --release -q -p pmm-bench --bin trace_smoke -- --scale tiny \
  --slo-gate --fault-plan "slow@0,slow@4,slow@8,slow@12,slow@16"; then
  echo "ERROR: SLO gate passed under a fault plan that must breach it"
  exit 1
fi

echo "==> serve load (open-loop arrivals; clean SLO gate must hold)"
cargo run --release -q -p pmm-bench --bin serve_load -- --scale tiny --slo-gate

echo "==> serve load chaos (worker panics + mid-run snapshot swap; supervision must keep the gate green)"
cargo run --release -q -p pmm-bench --bin serve_load -- --scale tiny \
  --slo-gate --fault-plan "panic@3,panic@9" --swap-at 12

echo "==> serve load gate (clean p99/throughput vs recorded BENCH_serve.json; >10% regression fails)"
cargo run --release -q -p pmm-bench --bin serve_load -- --scale tiny --slo-gate --gate

echo "==> ingest chaos (WAL kill-and-replay, delta serving bit-identical to cold build)"
cargo run --release -q -p pmm-bench --bin ingest_chaos -- --scale tiny

echo "==> ingest chaos must-fail (skipping replay loses acknowledged items; the gate must catch it)"
if cargo run --release -q -p pmm-bench --bin ingest_chaos -- --scale tiny \
  --fault-plan "wal_corrupt@0" --no-replay; then
  echo "ERROR: durability gate passed with replay disabled and a torn WAL"
  exit 1
fi

echo "==> verify OK"
