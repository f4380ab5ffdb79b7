//! Per-request trace ids, stage guards, and the bounded event ring.
//!
//! A [`TraceId`] is minted at enqueue from one global atomic and rides
//! the job through every worker; the submitting side and the worker
//! side each hold a [`Tracer`] for it (the worker resumes at the next
//! sequence number), so the events of one request reconstruct into a
//! single causal chain ordered by `seq`.
//!
//! Stages that have a latency distribution ([`Stage::histogram`])
//! record into their [`crate::hist`] histogram *and* open the matching
//! `pmm_obs::span` — one [`Tracer::begin`]/[`Tracer::finish`] pair per
//! stage keeps the histogram, the event, and the span in lockstep,
//! which is also what the `stage-histogram` audit rule enforces in
//! `crates/serve`.
//!
//! Events land in a bounded ring (drop-oldest, with a dropped counter)
//! and are flushed to the obs JSONL sink as `"ev":"trace"` lines by
//! [`ring::flush_to_sink`].

use crate::hist::{self, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A process-unique request trace id, minted at enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

fn next_trace_id() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Nanoseconds since the process trace epoch (the first call). A
/// monotonic per-process timebase keeps event ordering meaningful
/// without touching `SystemTime`.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The serving stages a trace event can attribute time or decisions
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission: the request was accepted into (or shed at) the queue.
    Enqueue,
    /// Time spent queued before a worker picked the job up.
    Queue,
    /// Catalogue encode for the attempted rung (all its components).
    Encode,
    /// User-prefix encode against the stage-1 catalogue.
    UserEncode,
    /// Catalogue scoring + top-k.
    Rank,
    /// The whole worker-side request (handler entry to reply).
    Request,
    /// A circuit-breaker admission decision.
    Breaker,
    /// A degradation-ladder rung transition.
    Tier,
    /// The reply left the worker (served or deadline-missed).
    Respond,
    /// A retry decision after a transient worker failure (re-enqueued
    /// onto a healthy worker, or budget-denied to the floor).
    Retry,
    /// A supervisor action on a worker slot: respawn, wedge
    /// declaration, or restart-budget give-up.
    Restart,
    /// A snapshot hot-swap: epoch flip through old-epoch drain.
    Swap,
    /// Durable item ingestion: a WAL append (or replay/fold decision).
    Ingest,
}

impl Stage {
    /// Stable label used in events and summaries.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Enqueue => "enqueue",
            Stage::Queue => "queue_wait",
            Stage::Encode => "encode",
            Stage::UserEncode => "user_encode",
            Stage::Rank => "rank",
            Stage::Request => "request",
            Stage::Breaker => "breaker",
            Stage::Tier => "tier",
            Stage::Respond => "respond",
            Stage::Retry => "retry",
            Stage::Restart => "restart",
            Stage::Swap => "swap",
            Stage::Ingest => "ingest",
        }
    }

    /// The `pmm_obs::span` name a [`Tracer::begin`] guard opens, so
    /// the hierarchical wall-clock profile keeps its existing paths.
    fn span_name(self) -> Option<&'static str> {
        match self {
            Stage::Request => Some("serve_request"),
            Stage::Encode => Some("serve_encode"),
            Stage::UserEncode => Some("serve_user"),
            Stage::Rank => Some("serve_rank"),
            _ => None,
        }
    }

    /// The latency histogram this stage records into. `Request` maps
    /// to none on purpose: end-to-end latency includes queue wait, so
    /// the serving loop records [`crate::hist::H_TOTAL`] from the
    /// enqueue timestamp instead of the handler-scoped clock.
    pub fn histogram(self) -> Option<&'static Histogram> {
        match self {
            Stage::Queue => Some(&hist::H_QUEUE_WAIT),
            Stage::Encode => Some(&hist::H_ENCODE),
            Stage::UserEncode => Some(&hist::H_USER_ENCODE),
            Stage::Rank => Some(&hist::H_RANK),
            Stage::Swap => Some(&hist::H_SWAP_DRAIN),
            Stage::Ingest => Some(&hist::H_INGEST),
            _ => None,
        }
    }
}

/// One structured trace event: everything needed to reconstruct a
/// request's causal chain and attribute its latency.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub trace: TraceId,
    /// Position in the request's chain (0 = enqueue).
    pub seq: u32,
    /// [`Stage::label`] of the emitting stage.
    pub stage: &'static str,
    /// Stage start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Stage duration (0 for instantaneous decision events).
    pub dur_ns: u64,
    /// `"ok"`, `"err"`, `"accepted"`, `"shed"`, `"deny"`,
    /// `"attempt"`, or `"deadline_miss"`.
    pub outcome: &'static str,
    /// Free-form context: tier label, component, queue depth, …
    pub detail: String,
}

/// An in-flight timed stage started by [`Tracer::begin`]. Holds the
/// matching obs span guard so histogram, event, and span close
/// together in [`Tracer::finish`].
pub struct StageClock {
    stage: Stage,
    start: Instant,
    start_ns: u64,
    _span: Option<pmm_obs::span::Span>,
}

/// Emits the events of one request. The submitting thread starts the
/// chain; a worker resumes it at the next sequence number.
pub struct Tracer {
    id: TraceId,
    seq: u32,
}

impl Tracer {
    /// Start a fresh chain with a newly minted [`TraceId`].
    pub fn start() -> Tracer {
        Tracer { id: next_trace_id(), seq: 0 }
    }

    /// Resume an existing chain (e.g. worker-side) at `seq`.
    pub fn resume(id: TraceId, seq: u32) -> Tracer {
        Tracer { id, seq }
    }

    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The sequence number the next event will get.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Open a timed stage: starts the clock and the stage's obs span.
    pub fn begin(&mut self, stage: Stage) -> StageClock {
        StageClock {
            stage,
            start: Instant::now(),
            start_ns: now_ns(),
            _span: stage.span_name().map(pmm_obs::span),
        }
    }

    /// Close a timed stage: records its histogram (when the stage has
    /// one), emits the event, and drops the span guard.
    pub fn finish(&mut self, clock: StageClock, outcome: &'static str, detail: &str) {
        let dur = clock.start.elapsed();
        if let Some(h) = clock.stage.histogram() {
            h.observe(dur);
        }
        self.emit(clock.stage, clock.start_ns, dur.as_nanos() as u64, outcome, detail);
    }

    /// Record an externally measured duration (e.g. queue wait, whose
    /// start lives on the submitting thread): histogram + event.
    pub fn observe(&mut self, stage: Stage, dur: Duration, outcome: &'static str, detail: &str) {
        if let Some(h) = stage.histogram() {
            h.observe(dur);
        }
        let dur_ns = dur.as_nanos() as u64;
        self.emit(stage, now_ns().saturating_sub(dur_ns), dur_ns, outcome, detail);
    }

    /// Emit a zero-duration decision event (enqueue outcome, breaker
    /// denial, tier transition, respond).
    pub fn instant(&mut self, stage: Stage, outcome: &'static str, detail: &str) {
        self.emit(stage, now_ns(), 0, outcome, detail);
    }

    fn emit(&mut self, stage: Stage, start_ns: u64, dur_ns: u64, outcome: &'static str, detail: &str) {
        if !pmm_obs::enabled() {
            return;
        }
        let event = TraceEvent {
            trace: self.id,
            seq: self.seq,
            stage: stage.label(),
            start_ns,
            dur_ns,
            outcome,
            detail: detail.to_string(),
        };
        self.seq += 1;
        ring::push(event);
    }
}

/// The bounded in-memory event buffer.
pub mod ring {
    use super::TraceEvent;
    use std::collections::VecDeque;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// Ring capacity; pushes beyond it drop the oldest event and bump
    /// `trace_dropped`.
    pub const CAPACITY: usize = 16_384;

    fn buf() -> MutexGuard<'static, VecDeque<TraceEvent>> {
        static RING: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
        RING.get_or_init(|| Mutex::new(VecDeque::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one event, dropping the oldest past [`CAPACITY`].
    pub fn push(event: TraceEvent) {
        let mut b = buf();
        if b.len() >= CAPACITY {
            b.pop_front();
            pmm_obs::counter::TRACE_DROPPED.add(1);
        }
        b.push_back(event);
        pmm_obs::counter::TRACE_EVENTS.add(1);
    }

    /// Number of buffered events.
    pub fn len() -> usize {
        buf().len()
    }

    /// Copy of the buffered events, oldest first.
    pub fn snapshot() -> Vec<TraceEvent> {
        buf().iter().cloned().collect()
    }

    /// Remove and return the buffered events, oldest first.
    pub fn drain() -> Vec<TraceEvent> {
        buf().drain(..).collect()
    }

    /// Discard the buffered events.
    pub fn clear() {
        buf().clear();
    }

    /// Drain the ring into the obs JSONL sink, one `"ev":"trace"` line
    /// per event. A no-op (events stay buffered) when no sink is open.
    pub fn flush_to_sink() {
        if !pmm_obs::sink::is_open() {
            return;
        }
        for e in drain() {
            pmm_obs::sink::emit_obj(
                pmm_obs::json::JsonObj::new()
                    .str("ev", "trace")
                    .u64("trace", e.trace.0)
                    .u64("seq", u64::from(e.seq))
                    .str("stage", e.stage)
                    .u64("start_ns", e.start_ns)
                    .u64("dur_ns", e.dur_ns)
                    .str("outcome", e.outcome)
                    .str("detail", &e.detail),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_global_lock as ring_lock;

    #[test]
    fn trace_ids_are_unique_and_display_stably() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_eq!(format!("{a}"), format!("t{}", a.0));
    }

    #[test]
    fn tracer_orders_a_causal_chain() {
        let _g = ring_lock();
        pmm_obs::set_enabled(true);
        ring::clear();
        let mut submit = Tracer::start();
        submit.instant(Stage::Enqueue, "accepted", "depth=1");
        let mut worker = Tracer::resume(submit.id(), submit.seq());
        let request = worker.begin(Stage::Request);
        worker.observe(Stage::Queue, Duration::from_micros(5), "ok", "");
        worker.instant(Stage::Tier, "attempt", "full");
        let clock = worker.begin(Stage::Encode);
        worker.finish(clock, "ok", "full");
        worker.instant(Stage::Respond, "ok", "full");
        worker.finish(request, "ok", "full");

        let events: Vec<TraceEvent> =
            ring::drain().into_iter().filter(|e| e.trace == submit.id()).collect();
        let seqs: Vec<u32> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "contiguous chain");
        let stages: Vec<&str> = events.iter().map(|e| e.stage).collect();
        assert_eq!(stages, vec!["enqueue", "queue_wait", "tier", "encode", "respond", "request"]);
        // The queue-wait event backdates its start by its duration.
        assert_eq!(events[1].dur_ns, 5_000);
        // Timed stages record into their histograms.
        assert!(crate::hist::H_QUEUE_WAIT.snapshot().count >= 1);
        assert!(crate::hist::H_ENCODE.snapshot().count >= 1);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let _g = ring_lock();
        pmm_obs::set_enabled(true);
        ring::clear();
        let dropped_before = pmm_obs::counter::TRACE_DROPPED.get();
        for i in 0..(ring::CAPACITY + 10) as u64 {
            ring::push(TraceEvent {
                trace: TraceId(i),
                seq: 0,
                stage: "enqueue",
                start_ns: i,
                dur_ns: 0,
                outcome: "ok",
                detail: String::new(),
            });
        }
        assert_eq!(ring::len(), ring::CAPACITY);
        let snap = ring::snapshot();
        assert_eq!(snap.first().map(|e| e.trace), Some(TraceId(10)), "oldest 10 dropped");
        assert_eq!(pmm_obs::counter::TRACE_DROPPED.delta_since(dropped_before), 10);
        ring::clear();
        assert_eq!(ring::len(), 0);
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let _g = ring_lock();
        pmm_obs::set_enabled(false);
        ring::clear();
        let mut t = Tracer::start();
        t.instant(Stage::Enqueue, "accepted", "");
        let c = t.begin(Stage::Rank);
        t.finish(c, "ok", "");
        assert_eq!(ring::len(), 0);
        assert_eq!(t.seq(), 0, "disabled emission does not advance the chain");
        pmm_obs::set_enabled(true);
    }
}
