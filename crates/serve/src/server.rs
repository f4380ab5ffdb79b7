//! The request runtime: supervised worker pool, admission, pipeline,
//! ladder.
//!
//! One `Server` owns a bounded queue, a versioned snapshot store, and
//! a pool of supervised worker threads. Each worker builds its own
//! engine replica from the current snapshot (the model is
//! single-threaded by design); breakers, the last-good cache, and the
//! popularity floor are shared. A request flows:
//!
//! ```text
//! submit ──bounded queue──> worker: ┌ encode ─ deadline? ─ user-encode ─ deadline? ─ rank ┐
//!    │ full? Rejected{depth}        │   └breaker per encoder component        └breaker    │
//!    └──────────────────────────────┴ rung failed? next ladder rung ... cached ... popularity
//! ```
//!
//! The pool is supervised (see [`crate::supervisor`]): a panicking
//! request fails into the ladder while the worker is respawned, a
//! wedged worker is retired by the heartbeat watchdog, and
//! [`Server::swap_snapshot`] flips the whole pool to a new engine
//! snapshot without shedding a request.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::engine::{Component, ServeEngine};
use crate::queue::BoundedQueue;
use crate::supervisor::{self, SuperCtl, SupervisorConfig, WorkerSlot};
use crate::swap::{Snapshots, SwapReport};
use crate::Tier;
use pmm_baselines::Popularity;
use pmm_data::world::Item;
use pmm_obs::counter as ctr;
use pmm_trace::{hist, Stage, StageClock, TraceId, Tracer};
use pmmrec::{RecommendError, Recommendation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads; `None` follows [`pmm_par::threads`] so the
    /// `--threads` / `PMM_THREADS` knob governs serving too.
    pub workers: Option<usize>,
    /// Hard queue capacity; beyond it, submissions shed.
    pub queue_capacity: usize,
    /// Default per-request deadline (queue wait included).
    pub deadline: Duration,
    /// How long an injected `slow` encoder fault stalls. Kept longer
    /// than `deadline` in chaos runs so slowness deterministically
    /// becomes a deadline miss.
    pub slow_fault: Duration,
    /// How long an injected `stall` worker fault freezes the worker
    /// without heartbeats. Kept longer than the wedge threshold in
    /// chaos runs so the watchdog deterministically fires.
    pub stall_fault: Duration,
    /// Breaker tuning, shared by all components.
    pub breaker: BreakerConfig,
    /// Supervision tuning: restart budgets, wedge threshold, retry
    /// budget.
    pub supervisor: SupervisorConfig,
    /// Start with consumers paused (deterministic overflow tests);
    /// release with [`Server::set_paused`].
    pub start_paused: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: None,
            queue_capacity: 64,
            deadline: Duration::from_millis(250),
            slow_fault: Duration::from_millis(400),
            stall_fault: Duration::from_secs(2),
            breaker: BreakerConfig::default(),
            supervisor: SupervisorConfig::default(),
            start_paused: false,
        }
    }
}

/// One recommendation request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller identity, keyed by the last-good cache.
    pub user: u64,
    /// Interaction history, most recent last.
    pub prefix: Vec<usize>,
    /// How many items to return.
    pub k: usize,
    /// Drop items already in the prefix.
    pub exclude_seen: bool,
    /// Per-request deadline override.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request with the server's default deadline and
    /// `exclude_seen = false`.
    pub fn new(user: u64, prefix: Vec<usize>, k: usize) -> Request {
        Request { user, prefix, k, exclude_seen: false, deadline: None }
    }
}

/// A served answer, tagged with the rung that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Monotonic request id assigned at submission.
    pub id: u64,
    /// The request's trace id: every `"ev":"trace"` event carrying it
    /// belongs to this request's causal chain.
    pub trace: TraceId,
    /// Echo of [`Request::user`].
    pub user: u64,
    /// The degradation rung that answered.
    pub tier: Tier,
    /// The snapshot epoch of the engine that answered (floor-tier
    /// answers carry the epoch current when they were served), so
    /// hot-swap tests can prove which snapshot a response came from.
    pub epoch: u64,
    /// The ranked items.
    pub items: Vec<Recommendation>,
}

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The queue was full; the request was shed at admission.
    Rejected {
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The deadline expired; `stage` names the pipeline boundary where
    /// the request was cancelled (`"wedged"` means the worker running
    /// it stalled and the watchdog answered).
    DeadlineExceeded {
        /// `"queue"`, `"encode"`, `"user_encode"`, `"rank"`, or
        /// `"wedged"`.
        stage: &'static str,
    },
    /// The request was malformed; nothing was enqueued.
    BadRequest(RecommendError),
    /// The server shut down before the request completed.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { queue_depth } => {
                write!(f, "request shed: queue full at depth {queue_depth}")
            }
            ServeError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at the {stage} stage")
            }
            ServeError::BadRequest(e) => write!(f, "bad request: {e}"),
            ServeError::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Awaits one submitted request's outcome.
#[derive(Debug)]
pub struct ResponseHandle {
    /// The id assigned at submission.
    pub id: u64,
    /// The trace id minted at enqueue.
    pub trace: TraceId,
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl ResponseHandle {
    /// Blocks until the request completes (or the server closes).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) trace: TraceId,
    pub(crate) request: Request,
    pub(crate) enqueued: Instant,
    pub(crate) deadline: Instant,
    pub(crate) reply: mpsc::Sender<Result<Response, ServeError>>,
    /// Times this job has been requeued after a worker panic.
    pub(crate) retries: u32,
    /// Trace sequence number the next handler resumes the chain at
    /// (advanced by the retry path so the chain stays ordered).
    pub(crate) resume_seq: u32,
}

/// The shared streamed-item delta log. Items appended by
/// [`Server::ingest`] live here (indexed by an *absolute* position
/// that survives folds) until [`Server::fold_delta`] publishes a base
/// snapshot containing them and drains the folded prefix. Workers
/// track the absolute position they have applied to their replica and
/// catch up between requests.
pub(crate) struct DeltaState {
    /// Unfolded items, oldest first.
    pub(crate) items: Vec<Item>,
    /// Absolute index of `items[0]`: everything below it was folded
    /// into a published base snapshot and dropped from the log.
    pub(crate) start: u64,
}

impl DeltaState {
    /// Absolute index one past the newest ingested item.
    pub(crate) fn total(&self) -> u64 {
        self.start + self.items.len() as u64
    }

    /// The items at or past absolute position `applied`, cloned out
    /// so the caller can apply them outside the lock.
    pub(crate) fn pending(&self, applied: u64) -> Vec<Item> {
        let from = (applied.max(self.start) - self.start) as usize;
        self.items.get(from..).map(<[Item]>::to_vec).unwrap_or_default()
    }
}

pub(crate) struct Shared {
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) breakers: [Mutex<CircuitBreaker>; 3],
    pub(crate) cache: Mutex<HashMap<u64, Vec<Recommendation>>>,
    pub(crate) popularity: Popularity,
    pub(crate) delta: Mutex<DeltaState>,
    pub(crate) slow_fault: Duration,
    pub(crate) stall_fault: Duration,
}

/// Locks shared serving state, recovering from poison: breaker and
/// cache values are valid at every instruction boundary, and a worker
/// panicking mid-request must not take every other worker down.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn breaker_of(shared: &Shared, c: Component) -> &Mutex<CircuitBreaker> {
    let idx = match c {
        Component::TextEncoder => 0,
        Component::VisionEncoder => 1,
        Component::Ranker => 2,
    };
    // pmm-audit: allow(hot-index) — idx is 0..=2 by the match above, and the array has 3 slots
    &shared.breakers[idx]
}

/// Who is allowed to send a request's reply, plus the snapshot epoch
/// the answer is tagged with. `owner: Some((slot, gen))` means the
/// reply must be claimed from the slot's in-flight cell (so a wedge
/// takeover and the worker cannot both answer); `None` means the
/// caller already owns the reply (supervisor drain, panic recovery).
pub(crate) struct ReplyCtx<'a> {
    pub(crate) owner: Option<(&'a WorkerSlot, u64)>,
    pub(crate) epoch: u64,
}

impl ReplyCtx<'_> {
    /// Claim the exclusive right to reply; `false` means someone else
    /// (the watchdog) already answered and every counter was already
    /// charged.
    fn claim(&self) -> bool {
        match self.owner {
            None => true,
            Some((slot, gen)) => slot.claim_if(gen),
        }
    }
}

/// The serving runtime. Dropping it closes the queue and joins the
/// supervisor and workers (draining accepted requests first).
pub struct Server<E: ServeEngine + 'static> {
    shared: Arc<Shared>,
    snaps: Arc<Snapshots<E>>,
    ctl: Arc<SuperCtl>,
    supervisor: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    default_deadline: Duration,
}

impl<E: ServeEngine + 'static> Server<E> {
    /// Starts the supervised worker pool. `factory` builds one engine
    /// per worker thread — engines are never shared, so the model's
    /// single-threaded internals are safe; build replicas from the
    /// same seed for bit-identical results across workers.
    /// `popularity` is the ladder's always-available floor.
    pub fn start<F>(cfg: ServerConfig, factory: F, popularity: Popularity) -> Server<E>
    where
        F: Fn() -> E + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            breakers: [
                Mutex::new(CircuitBreaker::new(cfg.breaker)),
                Mutex::new(CircuitBreaker::new(cfg.breaker)),
                Mutex::new(CircuitBreaker::new(cfg.breaker)),
            ],
            cache: Mutex::new(HashMap::new()),
            popularity,
            delta: Mutex::new(DeltaState { items: Vec::new(), start: 0 }),
            slow_fault: cfg.slow_fault,
            stall_fault: cfg.stall_fault,
        });
        if cfg.start_paused {
            shared.queue.set_paused(true);
        }
        let n_workers = cfg.workers.unwrap_or_else(pmm_par::threads).max(1);
        let snaps = Arc::new(Snapshots::new(Arc::new(factory)));
        let (ctl, supervisor) =
            supervisor::boot(cfg.supervisor, cfg.deadline, &shared, &snaps, n_workers);
        Server {
            shared,
            snaps,
            ctl,
            supervisor: Some(supervisor),
            next_id: AtomicU64::new(0),
            default_deadline: cfg.deadline,
        }
    }

    /// Enqueues a request. Never blocks: a full queue sheds with
    /// [`ServeError::Rejected`], a malformed request fails fast with
    /// [`ServeError::BadRequest`].
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, ServeError> {
        ctr::SERVE_REQUESTS.add(1);
        if request.prefix.is_empty() {
            return Err(ServeError::BadRequest(RecommendError::EmptyPrefix));
        }
        let mut tracer = Tracer::start();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let enqueued = Instant::now();
        let deadline = enqueued + request.deadline.unwrap_or(self.default_deadline);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id,
            trace: tracer.id(),
            request,
            enqueued,
            deadline,
            reply: tx,
            retries: 0,
            resume_seq: 1,
        };
        match self.shared.queue.try_push(job) {
            Ok(depth) => {
                self.ctl.note_accepted();
                if pmm_obs::enabled() {
                    tracer.instant(Stage::Enqueue, "accepted", &format!("depth={depth}"));
                }
                Ok(ResponseHandle { id, trace: tracer.id(), rx })
            }
            Err(queue_depth) => {
                ctr::SERVE_SHED.add(1);
                if pmm_obs::enabled() {
                    tracer.instant(Stage::Enqueue, "shed", &format!("depth={queue_depth}"));
                }
                Err(ServeError::Rejected { queue_depth })
            }
        }
    }

    /// Submit and wait: the one-call convenience path.
    pub fn call(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// Publish a new engine snapshot and wait for the pool to adopt
    /// it: the factory is flipped atomically, every worker rebuilds
    /// its replica from the new snapshot between requests (in-flight
    /// requests finish on the engine — and epoch tag — they started
    /// with), and abandoned slots are revived with a fresh restart
    /// budget. No request is shed on account of the swap: the queue
    /// keeps accepting throughout. Blocks only the calling thread,
    /// never serving.
    pub fn swap_snapshot<F>(&self, factory: F) -> SwapReport
    where
        F: Fn() -> E + Send + Sync + 'static,
    {
        // A plain swap replaces the base without touching the delta
        // log: the new snapshot inherits the current fold cut.
        let cut = self.snaps.delta_cut();
        self.swap_with_cut(Arc::new(factory), cut)
    }

    fn swap_with_cut(&self, factory: Arc<dyn Fn() -> E + Send + Sync>, delta_cut: u64) -> SwapReport {
        let start = Instant::now();
        let epoch = self.snaps.publish(factory, delta_cut);
        ctr::SERVE_SWAPS.add(1);
        // A new snapshot is new code as far as crash loops are
        // concerned: abandoned slots get a fresh budget.
        self.ctl.revive();
        // Wake idle workers so they notice the epoch without waiting
        // for traffic.
        self.shared.queue.poke();
        loop {
            if self.ctl.shutting_down() {
                break;
            }
            let pending = self
                .ctl
                .slots
                .iter()
                .any(|s| !s.given_up() && s.engine_epoch() != epoch);
            if !pending {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let drain = start.elapsed();
        ctr::SERVE_SWAP_DRAIN_NS.add(drain.as_nanos() as u64);
        let mut tracer = Tracer::start();
        tracer.observe(Stage::Swap, drain, "ok", &format!("epoch={epoch}"));
        SwapReport {
            epoch,
            drain,
            workers: self.ctl.slots.iter().filter(|s| s.engine_epoch() == epoch).count(),
            given_up: self.ctl.slots.iter().filter(|s| s.given_up()).count(),
        }
    }

    /// The currently published snapshot epoch.
    pub fn snapshot_epoch(&self) -> u64 {
        self.snaps.epoch()
    }

    /// Appends streamed items to the shared delta log. Workers apply
    /// them to their replicas between requests, so the very next
    /// request each worker serves already ranks over base + delta.
    /// Returns the absolute delta position after the append (the
    /// total number of items ever ingested). Call this *after* the
    /// items are durable in the WAL — the log is the in-memory view,
    /// `pmm_ingest::Wal` is the crash-safe one.
    pub fn ingest(&self, items: Vec<Item>) -> u64 {
        if items.is_empty() {
            return lock_clean(&self.shared.delta).total();
        }
        let start = Instant::now();
        let n = items.len();
        let total = {
            let mut delta = lock_clean(&self.shared.delta);
            delta.items.extend(items);
            delta.total()
        };
        ctr::INGEST_ITEMS.add(n as u64);
        let mut tracer = Tracer::start();
        tracer.observe(Stage::Ingest, start.elapsed(), "ok", &format!("items={n}"));
        // Wake idle workers so they fold the delta into their replicas
        // without waiting for traffic.
        self.shared.queue.poke();
        total
    }

    /// Items currently in the delta log (ingested but not yet folded
    /// into a published base snapshot).
    pub fn delta_len(&self) -> usize {
        lock_clean(&self.shared.delta).items.len()
    }

    /// Folds the delta into a new base snapshot: `factory` must build
    /// an engine whose base catalog already contains every delta item
    /// ingested so far (typically a cold build over base ∪ delta).
    /// Publishes it with the fold cut recorded, waits for every live
    /// worker to adopt it — zero requests shed, same drain machinery
    /// as [`Server::swap_snapshot`] — then retires the folded prefix
    /// from the log. Items ingested *during* the fold stay in the log
    /// and keep being applied as deltas on top of the new base.
    pub fn fold_delta<F>(&self, factory: F) -> SwapReport
    where
        F: Fn() -> E + Send + Sync + 'static,
    {
        let cut = lock_clean(&self.shared.delta).total();
        let report = self.swap_with_cut(Arc::new(factory), cut);
        ctr::INGEST_FOLDS.add(1);
        // Every live worker is on the new epoch now, with
        // `applied >= cut` — the folded prefix can never be re-applied,
        // so it is safe to drop.
        let mut delta = lock_clean(&self.shared.delta);
        let drop_n = ((cut - delta.start) as usize).min(delta.items.len());
        delta.items.drain(..drop_n);
        delta.start = cut;
        report
    }

    /// Whether every worker slot has exhausted its restart budget and
    /// the supervisor is serving the model-free floor directly. A
    /// [`Server::swap_snapshot`] revives a degraded pool.
    pub fn degraded(&self) -> bool {
        self.ctl.degraded()
    }

    /// Lifetime restart count per worker slot.
    pub fn worker_restarts(&self) -> Vec<u64> {
        self.ctl.slots.iter().map(WorkerSlot::restarts).collect()
    }

    /// Pauses or releases the worker side of the queue (producers are
    /// unaffected) — the deterministic overflow-test switch.
    pub fn set_paused(&self, paused: bool) {
        self.shared.queue.set_paused(paused);
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// A component breaker's current state.
    pub fn breaker_state(&self, c: Component) -> BreakerState {
        lock_clean(breaker_of(&self.shared, c)).state()
    }

    /// A component breaker's lifetime trip count.
    pub fn breaker_trips(&self, c: Component) -> u64 {
        lock_clean(breaker_of(&self.shared, c)).trips()
    }

    /// Closes the queue and joins the supervisor and workers after
    /// they drain the accepted backlog.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Stop the supervisor first so nothing respawns into the
        // closing pool, then close the queue so workers drain and
        // exit.
        self.ctl.begin_shutdown();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        self.shared.queue.close();
        self.ctl.join_workers();
        // An outage still open now would otherwise never be charged:
        // flush open time into the SLO counter at the very end.
        for b in &self.shared.breakers {
            lock_clean(b).flush_open_time();
        }
    }
}

impl<E: ServeEngine + 'static> Drop for Server<E> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn expired(deadline: Instant) -> bool {
    Instant::now() >= deadline
}

fn deadline_miss(
    ctx: &ReplyCtx<'_>,
    tracer: &mut Tracer,
    request_clock: StageClock,
    job: &Job,
    stage: &'static str,
) {
    if !ctx.claim() {
        return;
    }
    ctr::SERVE_DEADLINE_MISSES.add(1);
    hist::H_TOTAL.observe(job.enqueued.elapsed());
    tracer.instant(Stage::Respond, "deadline_miss", stage);
    tracer.finish(request_clock, "deadline_miss", stage);
    let _ = job.reply.send(Err(ServeError::DeadlineExceeded { stage }));
}

fn respond(
    shared: &Shared,
    ctx: &ReplyCtx<'_>,
    tracer: &mut Tracer,
    request_clock: StageClock,
    job: &Job,
    tier: Tier,
    items: Vec<Recommendation>,
) {
    if !ctx.claim() {
        return;
    }
    match tier {
        Tier::Full => ctr::SERVE_TIER_FULL.add(1),
        Tier::TextOnly | Tier::VisionOnly => ctr::SERVE_TIER_SINGLE.add(1),
        Tier::CachedTopK => ctr::SERVE_TIER_CACHED.add(1),
        Tier::Popularity => ctr::SERVE_TIER_POP.add(1),
    }
    if matches!(tier, Tier::Full | Tier::TextOnly | Tier::VisionOnly) {
        lock_clean(&shared.cache).insert(job.request.user, items.clone());
    }
    hist::H_TOTAL.observe(job.enqueued.elapsed());
    tracer.instant(Stage::Respond, "ok", tier.label());
    tracer.finish(request_clock, "ok", tier.label());
    let _ = job.reply.send(Ok(Response {
        id: job.id,
        trace: job.trace,
        user: job.request.user,
        tier,
        epoch: ctx.epoch,
        items,
    }));
}

/// The model-free tail of the ladder: last deadline check, then the
/// cached top-k, then the popularity floor. Shared by the worker's
/// ladder exhaustion, the panic-recovery path, and the degraded
/// supervisor drain — it never touches a model, so it is safe from
/// any reply owner.
pub(crate) fn respond_floor(
    shared: &Shared,
    ctx: &ReplyCtx<'_>,
    tracer: &mut Tracer,
    request_clock: StageClock,
    job: &Job,
) {
    // Model-free fallbacks: never compute, so no deadline risk beyond
    // this final check.
    if expired(job.deadline) {
        deadline_miss(ctx, tracer, request_clock, job, "rank");
        return;
    }
    let req = &job.request;
    tracer.instant(Stage::Tier, "attempt", Tier::CachedTopK.label());
    let cached = lock_clean(&shared.cache).get(&req.user).cloned();
    if let Some(mut items) = cached {
        items.truncate(req.k);
        respond(shared, ctx, tracer, request_clock, job, Tier::CachedTopK, items);
        return;
    }
    tracer.instant(Stage::Tier, "attempt", Tier::Popularity.label());
    let exclude: &[usize] = if req.exclude_seen { &req.prefix } else { &[] };
    let items = shared
        .popularity
        .top_k(req.k, exclude)
        .into_iter()
        .map(|(item, count)| Recommendation { item, score: count as f32 })
        .collect();
    respond(shared, ctx, tracer, request_clock, job, Tier::Popularity, items);
}

/// Runs one request through the ladder. Every exit path sends exactly
/// one reply (or relinquishes it to the watchdog via the claim
/// protocol). The worker resumes the request's trace chain at the
/// job's `resume_seq` (the submitting side emitted the seq-0 enqueue
/// event; a retry advances it): every timed stage runs inside a
/// [`Tracer::begin`]/[`Tracer::finish`] pair so the stage histogram,
/// trace event, and obs span stay in lockstep, and breaker denials
/// and tier transitions land as instant events. The worker stamps its
/// heartbeat at every stage boundary; the injected `panic`/`stall`
/// worker faults fire between admission and the ladder, inside the
/// supervisor's `catch_unwind` region.
pub(crate) fn attempt_request<E: ServeEngine>(
    engine: &E,
    epoch: u64,
    shared: &Shared,
    slot: &WorkerSlot,
    gen: u64,
    job: &Job,
    tracer: &mut Tracer,
) {
    let ctx = ReplyCtx { owner: Some((slot, gen)), epoch };
    let request_clock = tracer.begin(Stage::Request);
    if job.retries == 0 {
        tracer.observe(Stage::Queue, job.enqueued.elapsed(), "ok", "");
    } else {
        tracer.instant(Stage::Queue, "requeued", "retry");
    }
    if expired(job.deadline) {
        deadline_miss(&ctx, tracer, request_clock, job, "queue");
        return;
    }

    match pmm_fault::trip_worker() {
        Some(pmm_fault::WorkerFault::Panic) => {
            // pmm-audit: allow(hot-panic) — deterministic fault-injection point; the supervisor's catch_unwind is the feature under test
            panic!("injected worker panic (panic@N)");
        }
        Some(pmm_fault::WorkerFault::Stall) => {
            // Freeze without heartbeats: the wedge the watchdog hunts.
            std::thread::sleep(shared.stall_fault);
            if slot.retired(gen) {
                // The watchdog declared us wedged and already answered
                // (deadline miss) — exit without touching anything.
                return;
            }
            slot.stamp();
        }
        None => {}
    }

    let req = &job.request;
    'ladder: for tier in engine.ladder() {
        tracer.instant(Stage::Tier, "attempt", tier.label());
        let components = engine.components(tier);
        // Admission: every encoder component on this rung must admit.
        // Components already admitted when a later one denies get
        // released (their probe slot is returned unreported).
        let mut admitted = Vec::new();
        for &c in &components {
            if lock_clean(breaker_of(shared, c)).admit() {
                admitted.push(c);
            } else {
                tracer.instant(Stage::Breaker, "deny", c.label());
                for &a in &admitted {
                    lock_clean(breaker_of(shared, a)).release();
                }
                continue 'ladder;
            }
        }

        // Stage 1: encode.
        let clock = tracer.begin(Stage::Encode);
        let encoded = match engine.encode(tier, shared.slow_fault) {
            Err(failed) => {
                tracer.finish(clock, "err", failed.label());
                for &c in &components {
                    let mut b = lock_clean(breaker_of(shared, c));
                    // Only the component that errored gets an outcome;
                    // siblings the abort skipped return their slot.
                    if c == failed {
                        b.record(false);
                    } else {
                        b.release();
                    }
                }
                continue 'ladder;
            }
            Ok(e) => {
                tracer.finish(clock, "ok", tier.label());
                e
            }
        };
        slot.stamp();
        if expired(job.deadline) {
            // Slowness is charged to the components that stalled; the
            // rest completed honestly.
            for &c in &components {
                lock_clean(breaker_of(shared, c)).record(!encoded.slept.contains(&c));
            }
            deadline_miss(&ctx, tracer, request_clock, job, "encode");
            return;
        }
        for &c in &components {
            lock_clean(breaker_of(shared, c)).record(true);
        }

        // Stages 2+3 share the ranking-path breaker.
        if !lock_clean(breaker_of(shared, Component::Ranker)).admit() {
            tracer.instant(Stage::Breaker, "deny", Component::Ranker.label());
            break 'ladder;
        }

        // Stage 2: user encoding.
        let clock = tracer.begin(Stage::UserEncode);
        let user = match engine.user_encode(&encoded.catalog, &req.prefix) {
            Err(_) => {
                tracer.finish(clock, "err", tier.label());
                lock_clean(breaker_of(shared, Component::Ranker)).record(false);
                break 'ladder;
            }
            Ok(u) => {
                tracer.finish(clock, "ok", tier.label());
                u
            }
        };
        slot.stamp();
        if expired(job.deadline) {
            // The ranking path itself was healthy; the budget ran out.
            lock_clean(breaker_of(shared, Component::Ranker)).record(true);
            deadline_miss(&ctx, tracer, request_clock, job, "user_encode");
            return;
        }

        // Stage 3: rank.
        let clock = tracer.begin(Stage::Rank);
        let items =
            engine.rank(tier, &encoded.catalog, &user, &req.prefix, req.k, req.exclude_seen);
        tracer.finish(clock, "ok", tier.label());
        slot.stamp();
        lock_clean(breaker_of(shared, Component::Ranker)).record(true);
        respond(shared, &ctx, tracer, request_clock, job, tier, items);
        return;
    }

    respond_floor(shared, &ctx, tracer, request_clock, job);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Encoded;
    use pmm_tensor::Tensor;

    /// A model-free engine with the same fault-gate behaviour as the
    /// real one: catalogue scores descend with item id and carry a
    /// per-rung offset so tests can tell tiers apart by score.
    /// `delta` counts items streamed in via `apply_delta`, growing the
    /// catalogue so ingest tests can observe base + delta serving.
    struct StubEngine {
        n: usize,
        rungs: Vec<Tier>,
        delta: usize,
    }

    impl StubEngine {
        fn full() -> StubEngine {
            StubEngine {
                n: 10,
                rungs: vec![Tier::Full, Tier::TextOnly, Tier::VisionOnly],
                delta: 0,
            }
        }
    }

    fn tier_offset(tier: Tier) -> f32 {
        match tier {
            Tier::Full => 0.0,
            Tier::TextOnly => 1000.0,
            Tier::VisionOnly => 2000.0,
            _ => 0.0,
        }
    }

    impl ServeEngine for StubEngine {
        fn n_items(&self) -> usize {
            self.n + self.delta
        }

        fn ladder(&self) -> Vec<Tier> {
            self.rungs.clone()
        }

        fn components(&self, tier: Tier) -> Vec<Component> {
            match tier {
                Tier::Full => vec![Component::TextEncoder, Component::VisionEncoder],
                Tier::TextOnly => vec![Component::TextEncoder],
                Tier::VisionOnly => vec![Component::VisionEncoder],
                _ => Vec::new(),
            }
        }

        fn encode(&self, tier: Tier, slow_fault: Duration) -> Result<Encoded, Component> {
            let mut slept = Vec::new();
            for component in self.components(tier) {
                match pmm_fault::trip_encode() {
                    Some(pmm_fault::EncodeFault::Err) => return Err(component),
                    Some(pmm_fault::EncodeFault::Slow) => {
                        std::thread::sleep(slow_fault);
                        slept.push(component);
                    }
                    None => {}
                }
            }
            let off = tier_offset(tier);
            let total = self.n_items();
            let data: Vec<f32> = (0..total).map(|i| off + (total - i) as f32).collect();
            let catalog = Tensor::from_vec(data, &[total, 1]).unwrap();
            Ok(Encoded { catalog, slept })
        }

        fn user_encode(
            &self,
            _catalog: &Tensor,
            prefix: &[usize],
        ) -> Result<Tensor, RecommendError> {
            if prefix.is_empty() {
                return Err(RecommendError::EmptyPrefix);
            }
            Ok(Tensor::from_vec(vec![1.0], &[1, 1]).unwrap())
        }

        fn rank(
            &self,
            _tier: Tier,
            catalog: &Tensor,
            user: &Tensor,
            prefix: &[usize],
            k: usize,
            exclude_seen: bool,
        ) -> Vec<Recommendation> {
            let u = user.data()[0];
            let mut all: Vec<Recommendation> = catalog
                .data()
                .iter()
                .enumerate()
                .map(|(item, &s)| Recommendation { item, score: s * u })
                .filter(|r| !exclude_seen || !prefix.contains(&r.item))
                .collect();
            all.sort_by(|a, b| b.score.total_cmp(&a.score));
            all.truncate(k);
            all
        }

        fn apply_delta(&mut self, items: &[Item]) {
            self.delta += items.len();
        }
    }

    fn pop() -> Popularity {
        Popularity::from_sequences(10, &[vec![5, 5, 5, 3, 3], vec![5, 1]])
    }

    fn cfg() -> ServerConfig {
        ServerConfig {
            workers: Some(1),
            deadline: Duration::from_secs(10),
            breaker: BreakerConfig { window: 4, trip_failures: 1, cooldown_denials: 1000 },
            ..ServerConfig::default()
        }
    }

    /// Supervision tuned for tests: fast watchdog, fast respawns.
    fn fast_super() -> SupervisorConfig {
        SupervisorConfig {
            restart_backoff: Duration::from_millis(1),
            watchdog_interval: Duration::from_millis(2),
            ..SupervisorConfig::default()
        }
    }

    /// Polls until `f` holds or ~2s elapse; the supervisor's respawn
    /// and watchdog paths are asynchronous by design.
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..2000 {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn healthy_requests_serve_the_full_tier() {
        let server = Server::start(cfg(), StubEngine::full, pop());
        let resp = server.call(Request::new(1, vec![0, 1], 3)).unwrap();
        assert_eq!(resp.tier, Tier::Full);
        assert_eq!(resp.epoch, 0, "boot snapshot is epoch 0");
        assert_eq!(resp.items.len(), 3);
        // Full-tier scores carry no offset and descend with item id.
        assert_eq!(resp.items[0], Recommendation { item: 0, score: 10.0 });
        assert_eq!(resp.items[1], Recommendation { item: 1, score: 9.0 });
    }

    #[test]
    fn empty_prefix_is_rejected_at_submission() {
        let server = Server::start(cfg(), StubEngine::full, pop());
        let err = server.submit(Request::new(1, vec![], 3)).unwrap_err();
        assert_eq!(err, ServeError::BadRequest(RecommendError::EmptyPrefix));
    }

    #[test]
    fn full_queue_sheds_with_observed_depth() {
        let server = Server::start(
            ServerConfig { queue_capacity: 2, start_paused: true, ..cfg() },
            StubEngine::full,
            pop(),
        );
        let h1 = server.submit(Request::new(1, vec![0], 2)).unwrap();
        let h2 = server.submit(Request::new(2, vec![0], 2)).unwrap();
        let shed = server.submit(Request::new(3, vec![0], 2)).unwrap_err();
        assert_eq!(shed, ServeError::Rejected { queue_depth: 2 });
        // Releasing the pause drains the accepted backlog untouched.
        server.set_paused(false);
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
    }

    #[test]
    fn encoder_errors_walk_down_the_ladder() {
        pmm_fault::install(pmm_fault::FaultPlan::parse("err@0").unwrap());
        let server = Server::start(cfg(), StubEngine::full, pop());
        // Full: the text gate errs -> text breaker trips open; TextOnly
        // is denied admission; VisionOnly serves.
        let resp = server.call(Request::new(1, vec![0, 1], 3)).unwrap();
        pmm_fault::clear();
        assert_eq!(resp.tier, Tier::VisionOnly);
        assert!(resp.items[0].score >= 2000.0, "vision-rung scores carry the offset");
        assert_eq!(server.breaker_state(Component::TextEncoder), BreakerState::Open);
        assert_eq!(server.breaker_trips(Component::TextEncoder), 1);
        assert_eq!(server.breaker_state(Component::VisionEncoder), BreakerState::Closed);
    }

    #[test]
    fn slow_fault_cancels_at_the_encode_boundary() {
        pmm_fault::install(pmm_fault::FaultPlan::parse("slow@0").unwrap());
        let server = Server::start(
            ServerConfig {
                deadline: Duration::from_millis(30),
                slow_fault: Duration::from_millis(120),
                ..cfg()
            },
            StubEngine::full,
            pop(),
        );
        let err = server.call(Request::new(1, vec![0, 1], 3)).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { stage: "encode" });
        // The stalled component was charged with a timeout failure; the
        // healthy sibling was not.
        assert_eq!(server.breaker_state(Component::TextEncoder), BreakerState::Open);
        assert_eq!(server.breaker_state(Component::VisionEncoder), BreakerState::Closed);
        // The next request routes around the tripped text path.
        let resp = server.call(Request::new(1, vec![0, 1], 3)).unwrap();
        pmm_fault::clear();
        assert_eq!(resp.tier, Tier::VisionOnly);
    }

    #[test]
    fn cache_then_popularity_when_every_model_path_is_down() {
        // Request 0 is healthy (occurrences 0-1); request 1 errs on
        // both surviving gates (occurrences 2-3), tripping both
        // encoder breakers.
        pmm_fault::install(pmm_fault::FaultPlan::parse("err@2,err@3").unwrap());
        let server = Server::start(cfg(), StubEngine::full, pop());
        let healthy = server.call(Request::new(7, vec![0, 1], 3)).unwrap();
        assert_eq!(healthy.tier, Tier::Full);

        // Known user: the last-good cache answers.
        let cached = server.call(Request::new(7, vec![0, 1], 2)).unwrap();
        assert_eq!(cached.tier, Tier::CachedTopK);
        assert_eq!(cached.items, healthy.items[..2].to_vec(), "cache replays the last good top-k");

        // Unknown user with everything down: the popularity floor.
        let cold = server.call(Request::new(99, vec![4], 3)).unwrap();
        pmm_fault::clear();
        assert_eq!(cold.tier, Tier::Popularity);
        let ids: Vec<usize> = cold.items.iter().map(|r| r.item).collect();
        assert_eq!(ids, vec![5, 3, 1], "global best-sellers in count order");
        assert_eq!(server.breaker_state(Component::TextEncoder), BreakerState::Open);
        assert_eq!(server.breaker_state(Component::VisionEncoder), BreakerState::Open);
    }

    #[test]
    fn breaker_heals_through_a_half_open_probe() {
        pmm_fault::install(pmm_fault::FaultPlan::parse("err@0").unwrap());
        let server = Server::start(
            ServerConfig {
                breaker: BreakerConfig { window: 4, trip_failures: 1, cooldown_denials: 3 },
                ..cfg()
            },
            StubEngine::full,
            pop(),
        );
        // Trip the text breaker: the Full rung errs, the TextOnly rung
        // is denied (denial 1), VisionOnly serves.
        let first = server.call(Request::new(1, vec![0], 2)).unwrap();
        assert_eq!(first.tier, Tier::VisionOnly);
        assert_eq!(server.breaker_state(Component::TextEncoder), BreakerState::Open);
        // Next request: the Full-rung admission is denial 2, then the
        // TextOnly-rung admission reaches the cooldown and becomes the
        // half-open probe — it succeeds and closes the breaker.
        let probe = server.call(Request::new(1, vec![0], 2)).unwrap();
        assert_eq!(probe.tier, Tier::TextOnly, "the probe serves the text rung");
        assert_eq!(server.breaker_state(Component::TextEncoder), BreakerState::Closed);
        // Full service is restored.
        let healed = server.call(Request::new(1, vec![0], 2)).unwrap();
        pmm_fault::clear();
        assert_eq!(healed.tier, Tier::Full);
    }

    #[test]
    fn responses_are_identical_at_every_worker_count() {
        // Trace ids are process-global, so compare everything but them.
        type Answer = (u64, u64, Tier, Vec<Recommendation>);
        let mut reference: Option<Vec<Answer>> = None;
        for workers in [1usize, 2, 4] {
            let server = Server::start(
                ServerConfig { workers: Some(workers), ..cfg() },
                StubEngine::full,
                pop(),
            );
            let handles: Vec<ResponseHandle> = (0..8)
                .map(|u| server.submit(Request::new(u, vec![0, 1, 2], 4)).unwrap())
                .collect();
            let mut got: Vec<Answer> = handles
                .into_iter()
                .map(|h| {
                    let r = h.wait().unwrap();
                    (r.id, r.user, r.tier, r.items)
                })
                .collect();
            got.sort_by_key(|r| r.1);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "workers={workers}"),
            }
        }
    }

    #[test]
    fn panicking_request_retries_onto_the_respawned_worker() {
        // Occurrence 0 (first request) panics the worker mid-request.
        pmm_fault::install(pmm_fault::FaultPlan::parse("panic@0").unwrap());
        let server = Server::start(
            ServerConfig { supervisor: fast_super(), ..cfg() },
            StubEngine::full,
            pop(),
        );
        // The panicking request still resolves: the retry lands on the
        // respawned worker and serves the full tier.
        let resp = server.call(Request::new(1, vec![0, 1], 3)).unwrap();
        pmm_fault::clear();
        assert_eq!(resp.tier, Tier::Full, "the retry reaches a healthy model path");
        assert!(
            eventually(|| server.worker_restarts() == vec![1]),
            "the panicked worker is respawned within the budget: {:?}",
            server.worker_restarts()
        );
        assert!(!server.degraded());
        // Subsequent requests are served by the replacement,
        // bit-identical to a healthy server's answers.
        let after = server.call(Request::new(2, vec![0, 1], 3)).unwrap();
        assert_eq!(after.tier, Tier::Full);
        assert_eq!(after.items[0], Recommendation { item: 0, score: 10.0 });
    }

    #[test]
    fn retry_budget_exhaustion_fails_to_the_floor() {
        // Both the first attempt and its retry panic: with burst=1 and
        // ratio=0 the second panic is denied a retry and falls to the
        // model-free floor (popularity — user 9 has no cache entry).
        pmm_fault::install(pmm_fault::FaultPlan::parse("panic@0,panic@1").unwrap());
        let server = Server::start(
            ServerConfig {
                supervisor: SupervisorConfig {
                    retry_burst: 1,
                    retry_ratio: 0.0,
                    ..fast_super()
                },
                ..cfg()
            },
            StubEngine::full,
            pop(),
        );
        let resp = server.call(Request::new(9, vec![0, 1], 3)).unwrap();
        pmm_fault::clear();
        assert_eq!(resp.tier, Tier::Popularity, "denied retry degrades, never errors");
        assert!(eventually(|| server.worker_restarts() == vec![2]));
    }

    #[test]
    fn wedged_worker_is_retired_and_replaced() {
        pmm_fault::install(pmm_fault::FaultPlan::parse("stall@0").unwrap());
        let server = Server::start(
            ServerConfig {
                stall_fault: Duration::from_millis(200),
                supervisor: SupervisorConfig {
                    wedge_after: Some(Duration::from_millis(40)),
                    watchdog_interval: Duration::from_millis(5),
                    restart_backoff: Duration::from_millis(1),
                    ..SupervisorConfig::default()
                },
                ..cfg()
            },
            StubEngine::full,
            pop(),
        );
        // The stalled request is charged as a deadline miss by the
        // watchdog, well before the stall itself ends.
        let start = Instant::now();
        let err = server.call(Request::new(1, vec![0, 1], 3)).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { stage: "wedged" });
        assert!(
            start.elapsed() < Duration::from_millis(180),
            "the watchdog answers before the stall clears: {:?}",
            start.elapsed()
        );
        // A replacement takes over the slot and serves normally.
        assert!(eventually(|| server.worker_restarts() == vec![1]));
        let resp = server.call(Request::new(2, vec![0, 1], 3)).unwrap();
        pmm_fault::clear();
        assert_eq!(resp.tier, Tier::Full);
    }

    #[test]
    fn exhausted_restart_budget_degrades_to_the_floor_and_swap_revives() {
        // Every request panics; with a 1-restart budget the single
        // worker gives up after its second death.
        let many: Vec<String> = (0..20).map(|i| format!("panic@{i}")).collect();
        pmm_fault::install(pmm_fault::FaultPlan::parse(&many.join(",")).unwrap());
        let server = Server::start(
            ServerConfig {
                supervisor: SupervisorConfig {
                    max_restarts: 1,
                    retry_burst: 0,
                    retry_ratio: 0.0,
                    ..fast_super()
                },
                ..cfg()
            },
            StubEngine::full,
            pop(),
        );
        // First two requests panic (no retries allowed) and fall to
        // the floor; the worker dies twice and the slot is abandoned.
        for u in [1, 2] {
            let resp = server.call(Request::new(u, vec![0, 1], 3)).unwrap();
            assert_eq!(resp.tier, Tier::Popularity);
        }
        assert!(eventually(|| server.degraded()), "the pool abandons its only slot");
        // Degraded: the supervisor itself serves the floor.
        let resp = server.call(Request::new(3, vec![4], 3)).unwrap();
        assert_eq!(resp.tier, Tier::Popularity);
        pmm_fault::clear();
        // A snapshot swap revives the pool with a fresh budget.
        let report = server.swap_snapshot(StubEngine::full);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.given_up, 0, "the swap revived the abandoned slot");
        assert!(!server.degraded());
        let resp = server.call(Request::new(4, vec![0, 1], 3)).unwrap();
        assert_eq!(resp.tier, Tier::Full, "model serving is restored");
        assert_eq!(resp.epoch, 1, "served by the new snapshot");
    }

    #[test]
    fn snapshot_swap_is_atomic_and_tags_epochs() {
        let server: Server<StubEngine> = Server::start(cfg(), StubEngine::full, pop());
        let before = server.call(Request::new(1, vec![0, 1], 3)).unwrap();
        assert_eq!((before.epoch, before.tier), (0, Tier::Full));
        // Swap to a single-rung snapshot: tier and epoch both flip.
        let report = server
            .swap_snapshot(|| StubEngine { rungs: vec![Tier::TextOnly], ..StubEngine::full() });
        assert_eq!(report.epoch, 1);
        assert_eq!(report.workers, 1, "every live worker adopted the new snapshot");
        assert_eq!(server.snapshot_epoch(), 1);
        let after = server.call(Request::new(2, vec![0, 1], 3)).unwrap();
        assert_eq!((after.epoch, after.tier), (1, Tier::TextOnly));
        assert!(after.items[0].score >= 1000.0, "text-rung scores carry the offset");
    }

    fn stub_item(seed: usize) -> Item {
        Item {
            category: seed,
            latent: vec![seed as f32, 1.0 - seed as f32],
            tokens: vec![seed, seed + 1],
            patches: vec![0.5; 4],
            mismatched: false,
        }
    }

    #[test]
    fn ingested_items_serve_immediately_and_fold_retires_the_delta() {
        let server = Server::start(cfg(), StubEngine::full, pop());
        let base = server.call(Request::new(1, vec![0, 1], 1)).unwrap();
        assert_eq!(base.items[0], Recommendation { item: 0, score: 10.0 });
        // Stream three items in: the very next request ranks over
        // base + delta (the stub grows its catalogue per delta item,
        // so the best score rises to 13).
        let total = server.ingest((0..3).map(stub_item).collect());
        assert_eq!(total, 3);
        assert_eq!(server.delta_len(), 3);
        let grown = server.call(Request::new(2, vec![0, 1], 1)).unwrap();
        assert_eq!(grown.epoch, 0, "delta serving needs no snapshot swap");
        assert_eq!(grown.items[0], Recommendation { item: 0, score: 13.0 });
        // Fold: publish a base that already contains the delta. The
        // log drains, the epoch moves, and answers are unchanged.
        let report = server.fold_delta(|| StubEngine { n: 13, ..StubEngine::full() });
        assert_eq!(report.epoch, 1);
        assert_eq!(server.delta_len(), 0, "the fold retired the delta log");
        let folded = server.call(Request::new(3, vec![0, 1], 1)).unwrap();
        assert_eq!(folded.epoch, 1);
        assert_eq!(folded.items[0], Recommendation { item: 0, score: 13.0 });
        // Items ingested after the fold stack on the new base.
        server.ingest(vec![stub_item(9)]);
        let again = server.call(Request::new(4, vec![0, 1], 1)).unwrap();
        assert_eq!(again.items[0], Recommendation { item: 0, score: 14.0 });
    }

    #[test]
    fn half_open_probe_denials_count_exactly_once_across_a_swap() {
        // Single-rung ladder: each request burns exactly one
        // text-breaker admission, so denial counts map 1:1 to
        // requests and any reset or double-count across the swap
        // shifts which request becomes the half-open probe.
        let single = || StubEngine { rungs: vec![Tier::TextOnly], ..StubEngine::full() };
        pmm_fault::install(pmm_fault::FaultPlan::parse("err@0").unwrap());
        let server = Server::start(
            ServerConfig {
                breaker: BreakerConfig { window: 4, trip_failures: 1, cooldown_denials: 3 },
                ..cfg()
            },
            single,
            pop(),
        );
        // Request 1 errs and trips the breaker.
        assert_eq!(server.call(Request::new(1, vec![0], 2)).unwrap().tier, Tier::Popularity);
        assert_eq!(server.breaker_state(Component::TextEncoder), BreakerState::Open);
        // Requests 2 and 3: denials 1 and 2 — floor answers.
        assert_eq!(server.call(Request::new(2, vec![0], 2)).unwrap().tier, Tier::Popularity);
        let report = server.swap_snapshot(single);
        assert_eq!(report.epoch, 1);
        assert_eq!(
            server.breaker_state(Component::TextEncoder),
            BreakerState::Open,
            "a snapshot swap must not reset breaker state"
        );
        assert_eq!(server.call(Request::new(3, vec![0], 2)).unwrap().tier, Tier::Popularity);
        // Request 4: denial 3 reaches the cooldown and becomes the
        // half-open probe — it serves the text rung on the new epoch.
        // A swap that reset the denial count would floor this request;
        // one that double-counted would have probed request 3.
        let probe = server.call(Request::new(4, vec![0], 2)).unwrap();
        pmm_fault::clear();
        assert_eq!((probe.tier, probe.epoch), (Tier::TextOnly, 1));
        assert_eq!(server.breaker_state(Component::TextEncoder), BreakerState::Closed);
        assert_eq!(server.call(Request::new(5, vec![0], 2)).unwrap().tier, Tier::TextOnly);
    }
}
