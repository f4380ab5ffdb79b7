//! # pmm-serve
//!
//! A resilient inference-serving runtime in front of `pmmrec`. The
//! model gives a function you can call; this crate gives a service
//! that stays up when callers, encoders, or the clock misbehave:
//!
//! * **Bounded work queue with load shedding** — [`Server::submit`]
//!   never blocks and never grows memory without bound; a full queue
//!   returns [`ServeError::Rejected`] with the observed depth so the
//!   caller can back off.
//! * **Per-request deadlines with cooperative cancellation** — the
//!   pipeline (encode → user-encode → rank) checks the deadline
//!   between stages and abandons the request rather than serving a
//!   stale answer.
//! * **Per-component circuit breakers** — rolling error/timeout
//!   windows around the text encoder, vision encoder, and ranking
//!   path; a tripped breaker short-circuits the failing path and
//!   heals through a half-open probe.
//! * **Tiered degradation ladder** — full dual-modality scoring, then
//!   single-surviving-modality scoring, then the user's cached
//!   last-good top-k, then the global popularity baseline. Every
//!   response is tagged with the [`Tier`] that produced it; the
//!   service answers something at every rung.
//! * **Worker supervision with panic isolation** — each request runs
//!   under `catch_unwind`; a panic fails *that request* into the
//!   ladder (one retry under a global retry budget, else the floor)
//!   while the supervisor respawns the worker under an
//!   exponential-backoff restart budget. A heartbeat watchdog retires
//!   wedged workers in place; a pool that exhausts every restart
//!   budget degrades to supervisor-served floor answers instead of
//!   going dark.
//! * **Zero-downtime snapshot hot-swap** — [`Server::swap_snapshot`]
//!   atomically publishes a new engine snapshot; workers rebuild
//!   their replicas between requests, in-flight requests keep the
//!   epoch they started with, and no request is shed on account of
//!   the reload. Responses carry their snapshot epoch.
//!
//! Worker counts default to [`pmm_par::threads`], so the same
//! `--threads` / `PMM_THREADS` knob governs kernel parallelism and
//! serving concurrency. All scheduling is deterministic given a
//! `pmm_fault::FaultPlan` and one worker, which is how `serve_chaos`
//! proves the ladder. A plan reaches a server's threads when it is
//! installed on the thread that started the server (before or after
//! the start): every supervisor and worker thread enters its creator's
//! `pmm_fault` scope, and no other thread's plan is ever seen.
//!
//! Every request is traced: submission mints a [`TraceId`] (re-exported
//! from `pmm-trace`) that rides the job through every stage, each stage
//! records into its latency histogram, and breaker denials and tier
//! transitions land as structured trace events. See `pmm_trace` for
//! histograms, metrics exposition, and SLO evaluation over the
//! counters this crate maintains.

pub mod breaker;
pub mod engine;
pub mod queue;
pub(crate) mod race;
pub mod server;
pub mod supervisor;
pub mod swap;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use engine::{Component, PmmEngine, ServeEngine};
pub use pmm_trace::TraceId;
pub use queue::BoundedQueue;
pub use server::{Request, Response, ServeError, Server, ServerConfig};
pub use supervisor::SupervisorConfig;
pub use swap::SwapReport;

/// The degradation rung that produced a response, best first. The
/// serving loop walks these in order and stops at the first rung that
/// can answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Full dual-modality scoring through the fusion module.
    Full,
    /// Text-encoder-only scoring (vision path unavailable).
    TextOnly,
    /// Vision-encoder-only scoring (text path unavailable).
    VisionOnly,
    /// The user's cached last-good top-k (no model path available).
    CachedTopK,
    /// Global popularity baseline (nothing user-specific available).
    Popularity,
}

impl Tier {
    /// Short stable label for logs and summaries.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::TextOnly => "text_only",
            Tier::VisionOnly => "vision_only",
            Tier::CachedTopK => "cached_top_k",
            Tier::Popularity => "popularity",
        }
    }
}
