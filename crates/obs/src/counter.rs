//! Monotonic global counters plus the backward-tape live gauge.
//!
//! Counters are static `AtomicU64`s; an increment is one relaxed
//! atomic load (the enable check) plus one relaxed `fetch_add` when
//! collection is on, and just the load when off.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A named monotonic counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0) }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`; no-op while collection is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Growth since a previously captured `get()` value, saturating so
    /// a reset between the two reads degrades to the current value
    /// instead of wrapping.
    pub fn delta_since(&self, snapshot: u64) -> u64 {
        self.get().saturating_sub(snapshot)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Estimated floating-point operations in matmul kernels (2·m·k·n per
/// product, accumulated from actual shapes).
pub static MATMUL_FLOPS: Counter = Counter::new("matmul_flops");
/// Estimated scalar FLOPs in non-matmul tensor ops (elementwise,
/// activations, normalisation, reductions, losses) — per-op estimates
/// recorded at op-construction time so the matmul counter no longer
/// under-reports total arithmetic.
pub static OP_FLOPS: Counter = Counter::new("op_flops");
/// Pre-backward autograd graph audits that ran and passed
/// (`pmm_audit::graph` via the training-step hook).
pub static GRAPH_AUDITS: Counter = Counter::new("graph_audits");
/// Dense tensors materialized.
pub static TENSOR_ALLOCS: Counter = Counter::new("tensor_allocs");
/// Bytes of tensor element storage allocated.
pub static TENSOR_ALLOC_BYTES: Counter = Counter::new("tensor_alloc_bytes");
/// Packed micro-panel scratch buffers built by the tiled matmul path
/// (plain scratch, deliberately outside `tensor_allocs` so tensor
/// materializations stay comparable across kernel generations).
pub static PACK_ALLOCS: Counter = Counter::new("pack_allocs");
/// Bytes of packed micro-panel scratch allocated.
pub static PACK_ALLOC_BYTES: Counter = Counter::new("pack_alloc_bytes");
/// Quantized tensors materialized (int8 payload + per-row parameters).
pub static QTENSOR_ALLOCS: Counter = Counter::new("qtensor_allocs");
/// Bytes of quantized tensor storage allocated.
pub static QTENSOR_ALLOC_BYTES: Counter = Counter::new("qtensor_alloc_bytes");
/// Integer multiply-add ops (×2, mirroring the FLOP convention) in the
/// dequant-free int8 matmul kernels.
pub static QMATMUL_INT_OPS: Counter = Counter::new("qmatmul_int_ops");
/// Autograd tape nodes ever created.
pub static TAPE_NODES: Counter = Counter::new("tape_nodes");
/// Evaluation cases scored by the ranking metrics.
pub static EVAL_CASES: Counter = Counter::new("eval_cases");
/// Optimisation steps skipped by the anomaly guard (non-finite loss or
/// gradient norm).
pub static ANOMALY_STEPS: Counter = Counter::new("anomaly_steps");
/// Parameter rollbacks triggered by consecutive anomalies.
pub static ROLLBACKS: Counter = Counter::new("rollbacks");
/// Recoveries: finite steps arriving after an anomaly streak, with the
/// backed-off learning rate restored.
pub static RECOVERIES: Counter = Counter::new("recoveries");
/// Corrupt/unreadable checkpoints skipped while falling back to an
/// older generation.
pub static CKPT_FALLBACKS: Counter = Counter::new("ckpt_fallbacks");
/// IO operations that succeeded only after at least one retry.
pub static IO_RETRIES: Counter = Counter::new("io_retries");
/// Item encodes served with a missing modality (degraded content).
pub static DEGRADED_ENCODES: Counter = Counter::new("degraded_encodes");
/// Worker blocks dispatched by the pmm-par runtime (one per spawned
/// scoped thread; sequential fallbacks don't count).
pub static PAR_TASKS: Counter = Counter::new("par_tasks");

// --- injected-fault counts, by kind (bumped by pmm-fault when a
// planned fault actually fires; chaos bins print these so regressions
// in injection coverage are visible) ---

/// NaN-loss faults fired (`nan@N`).
pub static FAULTS_NAN: Counter = Counter::new("faults_nan");
/// Checkpoint-corruption faults fired (`ckpt@N`).
pub static FAULTS_CKPT: Counter = Counter::new("faults_ckpt");
/// IO-failure faults fired (`io@N`).
pub static FAULTS_IO: Counter = Counter::new("faults_io");
/// Slow-encoder faults fired (`slow@N`).
pub static FAULTS_SLOW: Counter = Counter::new("faults_slow");
/// Encoder-error faults fired (`err@N`).
pub static FAULTS_ERR: Counter = Counter::new("faults_err");
/// Worker-panic faults fired (`panic@N`).
pub static FAULTS_PANIC: Counter = Counter::new("faults_panic");
/// Worker-wedge faults fired (`stall@N`).
pub static FAULTS_STALL: Counter = Counter::new("faults_stall");
/// WAL torn-write faults fired (`wal_corrupt@N`).
pub static FAULTS_WAL: Counter = Counter::new("faults_wal_corrupt");

// --- serving-runtime counters (pmm-serve) ---

/// Requests accepted into the serving queue.
pub static SERVE_REQUESTS: Counter = Counter::new("serve_requests");
/// Requests shed at enqueue because the bounded queue was full.
pub static SERVE_SHED: Counter = Counter::new("serve_shed");
/// Requests cancelled between pipeline stages by an expired deadline.
pub static SERVE_DEADLINE_MISSES: Counter = Counter::new("serve_deadline_misses");
/// Circuit-breaker transitions into the open state.
pub static SERVE_BREAKER_TRIPS: Counter = Counter::new("serve_breaker_trips");
/// Total nanoseconds breakers spent open, accounted when each breaker
/// closes and flushed for still-open breakers at server shutdown (so
/// an outage open at shutdown still reaches SLO math).
pub static SERVE_BREAKER_OPEN_NS: Counter = Counter::new("serve_breaker_open_ns");
/// Responses served at the full dual-modality tier.
pub static SERVE_TIER_FULL: Counter = Counter::new("serve_tier_full");
/// Responses served from a single surviving modality.
pub static SERVE_TIER_SINGLE: Counter = Counter::new("serve_tier_single");
/// Responses served from the per-user last-good top-k cache.
pub static SERVE_TIER_CACHED: Counter = Counter::new("serve_tier_cached");
/// Responses served from the global popularity baseline.
pub static SERVE_TIER_POP: Counter = Counter::new("serve_tier_pop");

// --- worker-supervision counters (pmm-serve supervisor) ---

/// Worker request executions that panicked and were caught by the
/// supervisor's `catch_unwind` isolation.
pub static SERVE_PANICS: Counter = Counter::new("serve_worker_panics");
/// Workers declared wedged by the heartbeat watchdog (their in-flight
/// request is charged as a deadline miss).
pub static SERVE_WEDGES: Counter = Counter::new("serve_worker_wedges");
/// Replacement workers spawned by the supervisor (panic or wedge).
pub static SERVE_WORKER_RESTARTS: Counter = Counter::new("serve_worker_restarts");
/// Worker slots abandoned after exhausting their restart budget.
pub static SERVE_GIVEUPS: Counter = Counter::new("serve_worker_giveups");
/// Requests re-enqueued onto a healthy worker after a transient
/// failure, within the global retry budget.
pub static SERVE_RETRIES: Counter = Counter::new("serve_retries");
/// Retry candidates denied by the exhausted global retry budget and
/// served from the model-free floor instead.
pub static SERVE_RETRIES_DENIED: Counter = Counter::new("serve_retries_denied");
/// Snapshot hot-swaps performed via `Server::swap_snapshot`.
pub static SERVE_SWAPS: Counter = Counter::new("serve_swaps");
/// Total nanoseconds hot-swaps spent draining: from the epoch flip
/// until every live worker had adopted the new snapshot.
pub static SERVE_SWAP_DRAIN_NS: Counter = Counter::new("serve_swap_drain_ns");

// --- streaming-ingestion counters (pmm-ingest) ---

/// Item records appended to the write-ahead log (fsynced frames).
pub static WAL_APPENDS: Counter = Counter::new("wal_appends");
/// WAL segments opened (the initial segment plus every rotation).
pub static WAL_SEGMENTS: Counter = Counter::new("wal_segments");
/// Item records recovered by WAL replay across all segments.
pub static WAL_REPLAYED: Counter = Counter::new("wal_replayed");
/// Torn/corrupt WAL tails truncated during replay (each truncation is
/// one counted event, never a panic).
pub static WAL_TRUNCATED: Counter = Counter::new("wal_truncated");
/// Items ingested into a live delta catalogue (WAL append + in-memory
/// delta made searchable).
pub static INGEST_ITEMS: Counter = Counter::new("ingest_items");
/// Delta catalogues folded into the base via a snapshot hot-swap.
pub static INGEST_FOLDS: Counter = Counter::new("ingest_folds");

// --- request-tracing counters (pmm-trace) ---

/// Trace events pushed into the bounded trace ring.
pub static TRACE_EVENTS: Counter = Counter::new("trace_events");
/// Trace events evicted (oldest-first) because the ring was full.
pub static TRACE_DROPPED: Counter = Counter::new("trace_dropped");

// --- race-harness counters (pmm-audit sched) ---

/// Interleaving schedules run by the deterministic race harness.
pub static RACE_SCHEDULES: Counter = Counter::new("race_schedules_explored");
/// Invariant violations the race harness observed (each is printed
/// with its replay seed).
pub static RACE_VIOLATIONS: Counter = Counter::new("race_violations");

/// Currently-live tape nodes. Can dip below zero transiently if
/// collection is toggled while a graph is alive; the peak is what
/// matters and is monotone within an enabled window.
static TAPE_LIVE: AtomicI64 = AtomicI64::new(0);
static TAPE_PEAK: AtomicI64 = AtomicI64::new(0);

/// High-water mark of the serving queue depth.
static SERVE_QUEUE_PEAK: AtomicU64 = AtomicU64::new(0);

/// Record an observed serving-queue depth, keeping the high-water mark.
#[inline]
pub fn record_queue_depth(depth: u64) {
    if crate::enabled() {
        SERVE_QUEUE_PEAK.fetch_max(depth, Ordering::Relaxed);
    }
}

/// High-water mark of the serving queue depth.
pub fn serve_queue_peak() -> u64 {
    SERVE_QUEUE_PEAK.load(Ordering::Relaxed)
}

/// High-water mark of the open WAL segment's byte length (how close
/// the tail got to the rotation threshold).
static WAL_TAIL_PEAK: AtomicU64 = AtomicU64::new(0);

/// Record the open WAL segment's byte length after an append, keeping
/// the high-water mark.
#[inline]
pub fn record_wal_tail_bytes(bytes: u64) {
    if crate::enabled() {
        WAL_TAIL_PEAK.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// High-water mark of the open WAL segment's byte length.
pub fn wal_tail_peak_bytes() -> u64 {
    WAL_TAIL_PEAK.load(Ordering::Relaxed)
}

/// Record a matmul of `[m, k] x [k, n]` (or the equivalent transposed
/// layout): 2·m·k·n scalar FLOPs.
#[inline]
pub fn record_matmul(m: usize, k: usize, n: usize) {
    MATMUL_FLOPS.add(2 * (m as u64) * (k as u64) * (n as u64));
}

/// Record a batched matmul: `batch` products of `[m, k] x [k, n]`.
#[inline]
pub fn record_bmm(batch: usize, m: usize, k: usize, n: usize) {
    MATMUL_FLOPS.add((batch as u64) * 2 * (m as u64) * (k as u64) * (n as u64));
}

/// Record a matmul whose kernel short-circuits zero entries of the
/// `[m, k]` left operand: each of the `lhs_zeros` skipped entries
/// saves `2·n` FLOPs versus the dense `2·m·k·n` estimate. Kernels that
/// take the skipping path report through this so `matmul_flops` counts
/// multiply-adds actually executed on sparse/masked inputs.
#[inline]
pub fn record_matmul_skipping(m: usize, k: usize, n: usize, lhs_zeros: usize) {
    let dense = (m as u64) * (k as u64);
    let live = dense.saturating_sub(lhs_zeros as u64);
    MATMUL_FLOPS.add(2 * live * (n as u64));
}

/// Batched form of [`record_matmul_skipping`]; `lhs_zeros` counts
/// zeros across all `batch` left operands.
#[inline]
pub fn record_bmm_skipping(batch: usize, m: usize, k: usize, n: usize, lhs_zeros: usize) {
    let dense = (batch as u64) * (m as u64) * (k as u64);
    let live = dense.saturating_sub(lhs_zeros as u64);
    MATMUL_FLOPS.add(2 * live * (n as u64));
}

/// Record one dense tensor materialization of `elems` `f32` elements —
/// a single enable check covering both the count and byte counters.
#[inline]
pub fn record_tensor_alloc(elems: usize) {
    if crate::enabled() {
        TENSOR_ALLOCS.value.fetch_add(1, Ordering::Relaxed);
        TENSOR_ALLOC_BYTES
            .value
            .fetch_add((elems * std::mem::size_of::<f32>()) as u64, Ordering::Relaxed);
    }
}

/// Record `n` estimated scalar FLOPs from a non-matmul tensor op.
#[inline]
pub fn record_op_flops(n: u64) {
    OP_FLOPS.add(n);
}

/// Record one packed micro-panel scratch buffer of `elems` `f32`
/// elements — the tiled matmul's pack passes report through this so
/// kernel scratch is visible next to `tensor_alloc_bytes`.
#[inline]
pub fn record_pack_alloc(elems: usize) {
    if crate::enabled() {
        PACK_ALLOCS.value.fetch_add(1, Ordering::Relaxed);
        PACK_ALLOC_BYTES
            .value
            .fetch_add((elems * std::mem::size_of::<f32>()) as u64, Ordering::Relaxed);
    }
}

/// Record one quantized-tensor materialization of `bytes` total storage
/// (int8 payload plus per-row scale/zero-point/sum parameters).
#[inline]
pub fn record_qtensor_alloc(bytes: usize) {
    if crate::enabled() {
        QTENSOR_ALLOCS.value.fetch_add(1, Ordering::Relaxed);
        QTENSOR_ALLOC_BYTES.value.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Record an int8 matmul of `[m, k] x [k, n]`: 2·m·k·n integer
/// multiply-adds, kept in a separate counter from `matmul_flops` so
/// quantized and float work stay individually attributable.
#[inline]
pub fn record_qmatmul(m: usize, k: usize, n: usize) {
    QMATMUL_INT_OPS.add(2 * (m as u64) * (k as u64) * (n as u64));
}

/// Exact FLOP estimate [`record_matmul`] uses, exposed so tests and
/// roofline math share one definition.
pub fn matmul_flop_estimate(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Note a tape node's birth: bumps the monotonic total and the live
/// gauge, updating the high-water mark.
#[inline]
pub fn tape_node_created() {
    if crate::enabled() {
        TAPE_NODES.value.fetch_add(1, Ordering::Relaxed);
        let live = TAPE_LIVE.fetch_add(1, Ordering::Relaxed) + 1;
        TAPE_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Note a tape node's drop.
#[inline]
pub fn tape_node_dropped() {
    if crate::enabled() {
        TAPE_LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// High-water mark of simultaneously-live tape nodes.
pub fn tape_peak() -> u64 {
    TAPE_PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Currently-live tape nodes (clamped at zero).
pub fn tape_live() -> u64 {
    TAPE_LIVE.load(Ordering::Relaxed).max(0) as u64
}

/// All counter values by name, including the tape peak, in a stable
/// order suitable for reports.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    vec![
        (MATMUL_FLOPS.name, MATMUL_FLOPS.get()),
        (OP_FLOPS.name, OP_FLOPS.get()),
        (GRAPH_AUDITS.name, GRAPH_AUDITS.get()),
        (TENSOR_ALLOCS.name, TENSOR_ALLOCS.get()),
        (TENSOR_ALLOC_BYTES.name, TENSOR_ALLOC_BYTES.get()),
        (PACK_ALLOCS.name, PACK_ALLOCS.get()),
        (PACK_ALLOC_BYTES.name, PACK_ALLOC_BYTES.get()),
        (QTENSOR_ALLOCS.name, QTENSOR_ALLOCS.get()),
        (QTENSOR_ALLOC_BYTES.name, QTENSOR_ALLOC_BYTES.get()),
        (QMATMUL_INT_OPS.name, QMATMUL_INT_OPS.get()),
        (TAPE_NODES.name, TAPE_NODES.get()),
        ("tape_peak", tape_peak()),
        (EVAL_CASES.name, EVAL_CASES.get()),
        (ANOMALY_STEPS.name, ANOMALY_STEPS.get()),
        (ROLLBACKS.name, ROLLBACKS.get()),
        (RECOVERIES.name, RECOVERIES.get()),
        (CKPT_FALLBACKS.name, CKPT_FALLBACKS.get()),
        (IO_RETRIES.name, IO_RETRIES.get()),
        (DEGRADED_ENCODES.name, DEGRADED_ENCODES.get()),
        (PAR_TASKS.name, PAR_TASKS.get()),
        (FAULTS_NAN.name, FAULTS_NAN.get()),
        (FAULTS_CKPT.name, FAULTS_CKPT.get()),
        (FAULTS_IO.name, FAULTS_IO.get()),
        (FAULTS_SLOW.name, FAULTS_SLOW.get()),
        (FAULTS_ERR.name, FAULTS_ERR.get()),
        (FAULTS_PANIC.name, FAULTS_PANIC.get()),
        (FAULTS_STALL.name, FAULTS_STALL.get()),
        (FAULTS_WAL.name, FAULTS_WAL.get()),
        (SERVE_REQUESTS.name, SERVE_REQUESTS.get()),
        (SERVE_SHED.name, SERVE_SHED.get()),
        (SERVE_DEADLINE_MISSES.name, SERVE_DEADLINE_MISSES.get()),
        (SERVE_BREAKER_TRIPS.name, SERVE_BREAKER_TRIPS.get()),
        (SERVE_BREAKER_OPEN_NS.name, SERVE_BREAKER_OPEN_NS.get()),
        (SERVE_TIER_FULL.name, SERVE_TIER_FULL.get()),
        (SERVE_TIER_SINGLE.name, SERVE_TIER_SINGLE.get()),
        (SERVE_TIER_CACHED.name, SERVE_TIER_CACHED.get()),
        (SERVE_TIER_POP.name, SERVE_TIER_POP.get()),
        (SERVE_PANICS.name, SERVE_PANICS.get()),
        (SERVE_WEDGES.name, SERVE_WEDGES.get()),
        (SERVE_WORKER_RESTARTS.name, SERVE_WORKER_RESTARTS.get()),
        (SERVE_GIVEUPS.name, SERVE_GIVEUPS.get()),
        (SERVE_RETRIES.name, SERVE_RETRIES.get()),
        (SERVE_RETRIES_DENIED.name, SERVE_RETRIES_DENIED.get()),
        (SERVE_SWAPS.name, SERVE_SWAPS.get()),
        (SERVE_SWAP_DRAIN_NS.name, SERVE_SWAP_DRAIN_NS.get()),
        (WAL_APPENDS.name, WAL_APPENDS.get()),
        (WAL_SEGMENTS.name, WAL_SEGMENTS.get()),
        (WAL_REPLAYED.name, WAL_REPLAYED.get()),
        (WAL_TRUNCATED.name, WAL_TRUNCATED.get()),
        (INGEST_ITEMS.name, INGEST_ITEMS.get()),
        (INGEST_FOLDS.name, INGEST_FOLDS.get()),
        (TRACE_EVENTS.name, TRACE_EVENTS.get()),
        (TRACE_DROPPED.name, TRACE_DROPPED.get()),
        (RACE_SCHEDULES.name, RACE_SCHEDULES.get()),
        (RACE_VIOLATIONS.name, RACE_VIOLATIONS.get()),
        ("serve_queue_peak", serve_queue_peak()),
        ("wal_tail_peak_bytes", wal_tail_peak_bytes()),
    ]
}

/// Zero every counter and the tape gauge/peak.
pub fn reset_counters() {
    for c in [
        &MATMUL_FLOPS,
        &OP_FLOPS,
        &GRAPH_AUDITS,
        &TENSOR_ALLOCS,
        &TENSOR_ALLOC_BYTES,
        &PACK_ALLOCS,
        &PACK_ALLOC_BYTES,
        &QTENSOR_ALLOCS,
        &QTENSOR_ALLOC_BYTES,
        &QMATMUL_INT_OPS,
        &TAPE_NODES,
        &EVAL_CASES,
        &ANOMALY_STEPS,
        &ROLLBACKS,
        &RECOVERIES,
        &CKPT_FALLBACKS,
        &IO_RETRIES,
        &DEGRADED_ENCODES,
        &PAR_TASKS,
        &FAULTS_NAN,
        &FAULTS_CKPT,
        &FAULTS_IO,
        &FAULTS_SLOW,
        &FAULTS_ERR,
        &FAULTS_PANIC,
        &FAULTS_STALL,
        &FAULTS_WAL,
        &SERVE_REQUESTS,
        &SERVE_SHED,
        &SERVE_DEADLINE_MISSES,
        &SERVE_BREAKER_TRIPS,
        &SERVE_BREAKER_OPEN_NS,
        &SERVE_TIER_FULL,
        &SERVE_TIER_SINGLE,
        &SERVE_TIER_CACHED,
        &SERVE_TIER_POP,
        &SERVE_PANICS,
        &SERVE_WEDGES,
        &SERVE_WORKER_RESTARTS,
        &SERVE_GIVEUPS,
        &SERVE_RETRIES,
        &SERVE_RETRIES_DENIED,
        &SERVE_SWAPS,
        &SERVE_SWAP_DRAIN_NS,
        &WAL_APPENDS,
        &WAL_SEGMENTS,
        &WAL_REPLAYED,
        &WAL_TRUNCATED,
        &INGEST_ITEMS,
        &INGEST_FOLDS,
        &TRACE_EVENTS,
        &TRACE_DROPPED,
        &RACE_SCHEDULES,
        &RACE_VIOLATIONS,
    ] {
        c.reset();
    }
    TAPE_LIVE.store(0, Ordering::Relaxed);
    TAPE_PEAK.store(0, Ordering::Relaxed);
    SERVE_QUEUE_PEAK.store(0, Ordering::Relaxed);
    WAL_TAIL_PEAK.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_estimate_matches_closed_form() {
        assert_eq!(matmul_flop_estimate(3, 4, 5), 2 * 3 * 4 * 5);
        assert_eq!(matmul_flop_estimate(64, 64, 64), 524_288);
        assert_eq!(matmul_flop_estimate(0, 7, 9), 0);
    }
}
