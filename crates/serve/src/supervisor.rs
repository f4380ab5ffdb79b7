//! Worker supervision: panic isolation, heartbeat watchdog, restart
//! and retry budgets, and the degraded floor drain.
//!
//! Every worker thread in the pool is owned by a supervisor thread.
//! The worker runs each request under `catch_unwind`, so a panicking
//! request fails *that request* into the tier ladder (retry once onto
//! a healthy worker if the retry budget allows, else the model-free
//! floor) instead of silently killing the thread. When a worker does
//! die — a panic poisons its engine replica, so the thread always
//! exits after one — the supervisor respawns it under an
//! exponential-backoff restart budget; a slot that exhausts the budget
//! is abandoned (breaker-style "open" state for compute capacity),
//! and when *every* slot is abandoned the server enters a degraded
//! mode where the supervisor itself drains the queue straight into the
//! cache/popularity floor: requests keep resolving, just without a
//! model.
//!
//! Liveness is watched, not assumed: workers stamp a heartbeat between
//! pipeline stages, and a busy worker whose heartbeat goes stale past
//! the wedge threshold is declared wedged — its in-flight request is
//! charged as a deadline miss, the thread is retired in place
//! (generation bump; it can never touch its old slot again), and a
//! replacement is spawned.
//!
//! Slot handoff is generation-guarded: every mutation of a slot's
//! busy/in-flight state is gated on the generation the worker was
//! spawned with, and both the reply claim and the watchdog's wedge
//! takeover serialize on the in-flight mutex. That is what makes the
//! "exactly one reply per request" invariant survive panics, wedges,
//! and respawns happening concurrently.

use crate::engine::ServeEngine;
use crate::queue::Popped;
use crate::server::{
    attempt_request, lock_clean, respond_floor, Job, ReplyCtx, Response, ServeError, Shared,
};
use crate::swap::Snapshots;
use pmm_obs::counter as ctr;
use pmm_trace::{Stage, TraceId, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Supervision tuning.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Consecutive restarts a slot may burn before it is abandoned.
    pub max_restarts: u32,
    /// Base respawn delay; doubles per consecutive restart (capped at
    /// 1s) so a crash-looping snapshot cannot spin the supervisor.
    pub restart_backoff: Duration,
    /// A busy worker whose heartbeat is stale for `deadline ×
    /// wedge_multiple` is declared wedged.
    pub wedge_multiple: u32,
    /// Explicit wedge threshold; overrides `wedge_multiple` when set
    /// (tests use second-scale deadlines with millisecond stalls).
    pub wedge_after: Option<Duration>,
    /// Watchdog scan period (also the degraded drain cadence).
    pub watchdog_interval: Duration,
    /// Retries allowed per accepted request, long-run (the global
    /// retry-rate budget).
    pub retry_ratio: f64,
    /// Retries allowed before the ratio term kicks in, so a cold
    /// server can still retry its first faults.
    pub retry_burst: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 5,
            restart_backoff: Duration::from_millis(10),
            wedge_multiple: 4,
            wedge_after: None,
            watchdog_interval: Duration::from_millis(20),
            retry_ratio: 0.10,
            retry_burst: 2,
        }
    }
}

impl SupervisorConfig {
    /// The effective wedge threshold for a server deadline.
    fn wedge_threshold(&self, deadline: Duration) -> Duration {
        self.wedge_after.unwrap_or(deadline * self.wedge_multiple.max(1))
    }
}

/// The reply-side half of a request a worker is currently running,
/// parked in its slot so the watchdog can answer for a wedged worker.
pub(crate) struct InFlight {
    pub(crate) reply: mpsc::Sender<Result<Response, ServeError>>,
    pub(crate) enqueued: Instant,
    pub(crate) trace: TraceId,
}

/// One worker position in the pool. The slot outlives any individual
/// thread occupying it; `generation` names the current tenant.
pub(crate) struct WorkerSlot {
    index: usize,
    /// Heartbeats are nanoseconds since this per-server origin, so the
    /// stamp can be a lock-free atomic.
    origin: Instant,
    generation: AtomicU64,
    heartbeat_ns: AtomicU64,
    busy: AtomicBool,
    /// Snapshot epoch of the engine the tenant currently serves;
    /// `u64::MAX` until the first build completes.
    engine_epoch: AtomicU64,
    /// Lifetime restarts of this slot (mirrors the labeled metric).
    restarts: AtomicU64,
    /// Consecutive failures; a clean job resets it.
    consec: AtomicU32,
    given_up: AtomicBool,
    inflight: Mutex<Option<InFlight>>,
}

impl WorkerSlot {
    pub(crate) fn new(index: usize, origin: Instant) -> WorkerSlot {
        WorkerSlot {
            index,
            origin,
            generation: AtomicU64::new(0),
            heartbeat_ns: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            engine_epoch: AtomicU64::new(u64::MAX),
            restarts: AtomicU64::new(0),
            consec: AtomicU32::new(0),
            given_up: AtomicBool::new(false),
            inflight: Mutex::new(None),
        }
    }

    fn lock_inflight(&self) -> MutexGuard<'_, Option<InFlight>> {
        // An Option<InFlight> is valid at every instruction boundary,
        // so a poisoned guard is safe to adopt.
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Whether `gen`'s tenancy has ended (wedge takeover or respawn).
    pub(crate) fn retired(&self, gen: u64) -> bool {
        self.generation() != gen
    }

    /// Stamp the heartbeat: "I made progress just now."
    pub(crate) fn stamp(&self) {
        self.heartbeat_ns.store(self.origin.elapsed().as_nanos() as u64, Ordering::Release);
    }

    fn stale_for(&self, now: Instant) -> Duration {
        let now_ns = now.duration_since(self.origin).as_nanos() as u64;
        Duration::from_nanos(now_ns.saturating_sub(self.heartbeat_ns.load(Ordering::Acquire)))
    }

    pub(crate) fn engine_epoch(&self) -> u64 {
        self.engine_epoch.load(Ordering::Acquire)
    }

    pub(crate) fn given_up(&self) -> bool {
        self.given_up.load(Ordering::Acquire)
    }

    pub(crate) fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Park the reply half of `job` so the watchdog can answer for us
    /// if we wedge mid-request.
    pub(crate) fn begin_job(&self, job: &Job) {
        crate::race::yield_point("slot-begin-job");
        let mut guard = self.lock_inflight();
        *guard = Some(InFlight {
            reply: job.reply.clone(),
            enqueued: job.enqueued,
            trace: job.trace,
        });
        drop(guard);
        self.busy.store(true, Ordering::Release);
        self.stamp();
    }

    /// Clear the busy flag after a job, generation-gated so a retired
    /// tenant cannot clear its replacement's state.
    pub(crate) fn end_job(&self, gen: u64) {
        crate::race::yield_point("slot-end-job");
        let mut guard = self.lock_inflight();
        if self.generation() == gen {
            *guard = None;
            drop(guard);
            self.busy.store(false, Ordering::Release);
        }
    }

    /// Claim the right to send this request's reply. Exactly one of
    /// {owning worker, watchdog} wins: both paths serialize on the
    /// in-flight mutex, and a retired generation never wins.
    pub(crate) fn claim_if(&self, gen: u64) -> bool {
        crate::race::yield_point("slot-claim");
        let mut guard = self.lock_inflight();
        if self.generation() != gen {
            return false;
        }
        guard.take().is_some()
    }

    /// Watchdog takeover of a wedged tenant: retire the generation and
    /// seize the in-flight reply (if the worker had not claimed it) in
    /// one critical section.
    pub(crate) fn wedge_take(&self) -> Option<InFlight> {
        crate::race::yield_point("slot-wedge-take");
        let mut guard = self.lock_inflight();
        self.generation.fetch_add(1, Ordering::AcqRel);
        let taken = guard.take();
        drop(guard);
        self.busy.store(false, Ordering::Release);
        taken
    }

    /// Install a new tenancy: bump the generation (retiring any
    /// stragglers) and reset per-tenant state. Returns the new
    /// generation.
    pub(crate) fn install_tenant(&self) -> u64 {
        crate::race::yield_point("slot-install-tenant");
        let mut guard = self.lock_inflight();
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        *guard = None;
        drop(guard);
        self.busy.store(false, Ordering::Release);
        self.engine_epoch.store(u64::MAX, Ordering::Release);
        self.stamp();
        gen
    }

    /// Park `reply` as the slot's in-flight request without going
    /// through a full [`Job`], so the interleaving harness can stage
    /// the claim/wedge protocol in isolation.
    #[cfg(test)]
    pub(crate) fn race_park(&self, reply: mpsc::Sender<Result<Response, ServeError>>) {
        let mut guard = self.lock_inflight();
        *guard = Some(InFlight { reply, enqueued: Instant::now(), trace: TraceId(0) });
        drop(guard);
        self.busy.store(true, Ordering::Release);
    }

    /// The TOCTOU claim [`WorkerSlot::claim_if`] exists to prevent: the
    /// generation check and the reply grab are separate steps with a
    /// schedulable gap between them, and the reply is *cloned out*
    /// rather than taken, so a wedge takeover between the two steps
    /// leaves both sides holding a sender. The interleaving harness
    /// uses this to seed an exactly-one-reply violation.
    #[cfg(test)]
    pub(crate) fn race_claim_peek(
        &self,
        gen: u64,
    ) -> Option<mpsc::Sender<Result<Response, ServeError>>> {
        if self.retired(gen) {
            return None;
        }
        crate::race::yield_point("racy-claim-gap");
        let guard = self.lock_inflight();
        guard.as_ref().map(|f| f.reply.clone())
    }
}

/// Per-slot supervisor-side state (under the one supervisor lock).
struct SlotState {
    handle: Option<JoinHandle<()>>,
    /// When a pending respawn becomes due (backoff), if any.
    respawn_at: Option<Instant>,
}

struct SuperState {
    slots: Vec<SlotState>,
    /// Death notices from exiting workers: `(slot index, generation)`.
    dead: Vec<(usize, u64)>,
    /// Threads retired in place (wedged); joined at shutdown once the
    /// closed queue wakes them.
    zombies: Vec<JoinHandle<()>>,
}

impl SuperState {
    /// The supervisor-side state for worker `index`. Mirrors
    /// [`SuperCtl::slot`]: both vectors are sized at boot and never
    /// change length.
    fn slot_mut(&mut self, index: usize) -> &mut SlotState {
        // pmm-audit: allow(hot-index) — fixed at boot to n_workers entries; every stored worker index is in bounds
        &mut self.slots[index]
    }
}

/// The supervisor's shared control block.
pub(crate) struct SuperCtl {
    cfg: SupervisorConfig,
    /// Effective wedge threshold (resolved against the server
    /// deadline at boot).
    wedge_after: Duration,
    pub(crate) slots: Vec<WorkerSlot>,
    state: Mutex<SuperState>,
    wake: Condvar,
    shutdown: AtomicBool,
    degraded: AtomicBool,
    /// Accepted-request count feeding the retry-rate budget.
    accepted: AtomicU64,
    retries_spent: AtomicU64,
}

impl SuperCtl {
    fn lock_state(&self) -> MutexGuard<'_, SuperState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared slot for worker `index`. The slot vector is sized at
    /// boot and never changes length, so any worker index handed out
    /// by this module stays in bounds for the pool's lifetime.
    fn slot(&self, index: usize) -> &WorkerSlot {
        // pmm-audit: allow(hot-index) — fixed at boot to n_workers entries; every stored worker index is in bounds
        &self.slots[index]
    }

    /// Whether every slot has exhausted its restart budget.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Count one accepted request toward the retry-rate denominator.
    pub(crate) fn note_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Try to spend one unit of the global retry budget:
    /// `burst + ratio × accepted` retries are allowed in total.
    pub(crate) fn try_spend_retry(&self) -> bool {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let allowance =
            self.cfg.retry_burst + (accepted as f64 * self.cfg.retry_ratio) as u64;
        if self.retries_spent.fetch_add(1, Ordering::AcqRel) < allowance {
            true
        } else {
            self.retries_spent.fetch_sub(1, Ordering::AcqRel);
            false
        }
    }

    /// Death notice from an exiting worker; the supervisor schedules
    /// the respawn (or the give-up) on its next wake.
    fn notify_dead(&self, index: usize, gen: u64) {
        let mut st = self.lock_state();
        st.dead.push((index, gen));
        drop(st);
        self.wake.notify_all();
    }

    /// Give abandoned slots a fresh restart budget (a new snapshot is
    /// new code as far as crash loops are concerned) and clear the
    /// degraded flag. Called by `Server::swap_snapshot`.
    pub(crate) fn revive(&self) {
        let now = Instant::now();
        let mut st = self.lock_state();
        let mut revived = false;
        for (index, slot) in self.slots.iter().enumerate() {
            if slot.given_up() {
                slot.given_up.store(false, Ordering::Release);
                slot.consec.store(0, Ordering::Release);
                st.slot_mut(index).respawn_at = Some(now);
                revived = true;
            }
        }
        drop(st);
        if revived {
            self.degraded.store(false, Ordering::Release);
            self.wake.notify_all();
        }
    }

    /// Flag shutdown and wake the supervisor so it exits.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    /// Join every live worker and every retired zombie. The queue must
    /// already be closed so blocked workers wake and exit.
    pub(crate) fn join_workers(&self) {
        let mut st = self.lock_state();
        let mut handles: Vec<JoinHandle<()>> = st.zombies.drain(..).collect();
        for slot in &mut st.slots {
            if let Some(h) = slot.handle.take() {
                handles.push(h);
            }
        }
        drop(st);
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Boot the pool: `n_workers` supervised workers plus the supervisor
/// thread itself. This module is the only place serve threads are
/// spawned, so panic isolation and slot bookkeeping cannot be
/// bypassed. Every pool thread enters the booting thread's
/// `pmm_fault` scope (workers respawned later inherit it through the
/// supervisor), so a plan armed by the server's creator reaches it.
pub(crate) fn boot<E: ServeEngine + 'static>(
    cfg: SupervisorConfig,
    deadline: Duration,
    shared: &Arc<Shared>,
    snaps: &Arc<Snapshots<E>>,
    n_workers: usize,
) -> (Arc<SuperCtl>, JoinHandle<()>) {
    let origin = Instant::now();
    let ctl = Arc::new(SuperCtl {
        cfg,
        wedge_after: cfg.wedge_threshold(deadline),
        slots: (0..n_workers).map(|i| WorkerSlot::new(i, origin)).collect(),
        state: Mutex::new(SuperState {
            slots: (0..n_workers).map(|_| SlotState { handle: None, respawn_at: None }).collect(),
            dead: Vec::new(),
            zombies: Vec::new(),
        }),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        degraded: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        retries_spent: AtomicU64::new(0),
    });
    {
        let mut st = ctl.lock_state();
        for index in 0..n_workers {
            let handle = spawn_worker(&ctl, shared, snaps, index);
            st.slot_mut(index).handle = Some(handle);
        }
    }
    let supervisor = {
        let ctl = Arc::clone(&ctl);
        let shared = Arc::clone(shared);
        let snaps = Arc::clone(snaps);
        let faults = pmm_fault::current();
        std::thread::Builder::new()
            .name("pmm-serve-super".to_string())
            .spawn(move || {
                pmm_fault::enter(faults);
                run_supervisor(&ctl, &shared, &snaps)
            })
            // pmm-audit: allow(hot-unwrap) — pool startup, not the request path; a failed spawn means the server never comes up
            .expect("spawn serve supervisor")
    };
    (ctl, supervisor)
}

fn spawn_worker<E: ServeEngine + 'static>(
    ctl: &Arc<SuperCtl>,
    shared: &Arc<Shared>,
    snaps: &Arc<Snapshots<E>>,
    index: usize,
) -> JoinHandle<()> {
    let gen = ctl.slot(index).install_tenant();
    let ctl = Arc::clone(ctl);
    let shared = Arc::clone(shared);
    let snaps = Arc::clone(snaps);
    let faults = pmm_fault::current();
    std::thread::Builder::new()
        .name(format!("pmm-serve-{index}"))
        .spawn(move || {
            pmm_fault::enter(faults);
            worker_loop(&ctl, &shared, &snaps, index, gen)
        })
        // pmm-audit: allow(hot-unwrap) — a failed thread spawn means the OS is out of resources; no in-request path reaches here
        .expect("spawn serve worker")
}

/// One worker tenancy: build an engine replica from the current
/// snapshot, serve jobs under `catch_unwind`, rebuild when the
/// snapshot epoch moves, and exit (with a death notice) after any
/// panic — a panic may have corrupted the replica, so the thread never
/// serves another request with it.
fn worker_loop<E: ServeEngine>(
    ctl: &Arc<SuperCtl>,
    shared: &Arc<Shared>,
    snaps: &Arc<Snapshots<E>>,
    index: usize,
    gen: u64,
) {
    let slot = &ctl.slot(index);
    let mut seen_pokes = shared.queue.pokes();
    // (replica, epoch, absolute delta position applied to it). A fresh
    // build starts at the snapshot's fold cut — its base already
    // contains everything below it.
    let mut engine: Option<(E, u64, u64)> = None;
    loop {
        if slot.retired(gen) {
            // Wedge takeover: the slot belongs to a replacement now.
            return;
        }
        let needs_build = match &engine {
            None => true,
            Some((_, epoch, _)) => *epoch != snaps.epoch(),
        };
        if needs_build {
            let (factory, epoch, cut) = snaps.current();
            match catch_unwind(AssertUnwindSafe(|| factory())) {
                Ok(e) => {
                    engine = Some((e, epoch, cut));
                    slot.engine_epoch.store(epoch, Ordering::Release);
                    slot.stamp();
                }
                Err(_) => {
                    ctr::SERVE_PANICS.add(1);
                    ctl.notify_dead(index, gen);
                    return;
                }
            }
            // Re-check the epoch: a publish may have raced the build.
            continue;
        }
        let Some((eng, epoch, applied)) = &mut engine else { continue };
        // Catch up on streamed deltas before serving: clone the unseen
        // suffix of the shared log under its lock, apply it outside.
        let pending = {
            let delta = lock_clean(&shared.delta);
            let pending = delta.pending(*applied);
            *applied = delta.total();
            pending
        };
        if !pending.is_empty() {
            eng.apply_delta(&pending);
            slot.stamp();
        }
        match shared.queue.pop_or_poke(&mut seen_pokes) {
            Popped::Closed => return,
            Popped::Poke => continue,
            Popped::Item(job) => {
                slot.stamp();
                if !run_job(eng, *epoch, shared, ctl, slot, gen, job) {
                    ctl.notify_dead(index, gen);
                    return;
                }
            }
        }
    }
}

/// Run one job with panic isolation. Returns `false` when the worker
/// must die (a request panicked under it).
fn run_job<E: ServeEngine>(
    engine: &E,
    epoch: u64,
    shared: &Shared,
    ctl: &SuperCtl,
    slot: &WorkerSlot,
    gen: u64,
    job: Job,
) -> bool {
    slot.begin_job(&job);
    let mut tracer = Tracer::resume(job.trace, job.resume_seq);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        attempt_request(engine, epoch, shared, slot, gen, &job, &mut tracer);
    }));
    match outcome {
        Ok(()) => {
            slot.end_job(gen);
            slot.consec.store(0, Ordering::Release);
            true
        }
        Err(_) => {
            ctr::SERVE_PANICS.add(1);
            recover_panicked_job(shared, ctl, slot, gen, job, tracer, epoch);
            false
        }
    }
}

/// A request panicked under us: fail *the request* into the ladder —
/// retry once onto a healthy worker if the budget allows, else serve
/// the model-free floor — while this worker dies.
fn recover_panicked_job(
    shared: &Shared,
    ctl: &SuperCtl,
    slot: &WorkerSlot,
    gen: u64,
    mut job: Job,
    mut tracer: Tracer,
    epoch: u64,
) {
    if !slot.claim_if(gen) {
        // The watchdog already answered for us (or the reply went out
        // before the panic); nothing left to do for this request.
        return;
    }
    slot.end_job(gen);
    if job.retries == 0 && ctl.try_spend_retry() {
        ctr::SERVE_RETRIES.add(1);
        tracer.instant(Stage::Retry, "requeue", "panic");
        job.retries += 1;
        job.resume_seq = tracer.seq();
        match shared.queue.try_requeue(job) {
            Ok(_) => return,
            Err(returned) => {
                // Queue full or closed: the retry has nowhere to run;
                // fall through to the floor with the returned job.
                job = returned;
            }
        }
    } else {
        ctr::SERVE_RETRIES_DENIED.add(1);
        tracer.instant(Stage::Retry, "deny", "budget");
    }
    let request_clock = tracer.begin(Stage::Request);
    respond_floor(shared, &ReplyCtx { owner: None, epoch }, &mut tracer, request_clock, &job);
}

/// The supervisor loop: watchdog scans, death-notice processing,
/// backoff-gated respawns, and (when every slot is abandoned) the
/// degraded floor drain.
fn run_supervisor<E: ServeEngine + 'static>(
    ctl: &Arc<SuperCtl>,
    shared: &Arc<Shared>,
    snaps: &Arc<Snapshots<E>>,
) {
    loop {
        {
            let st = ctl.lock_state();
            let (st, _) = ctl
                .wake
                .wait_timeout(st, ctl.cfg.watchdog_interval)
                .unwrap_or_else(PoisonError::into_inner);
            drop(st);
        }
        if ctl.shutting_down() {
            return;
        }
        scan_for_wedged(ctl);
        process_deaths(ctl);
        respawn_due(ctl, shared, snaps);
        if ctl.degraded() {
            drain_degraded(ctl, shared, snaps.epoch());
        }
    }
}

/// Declare busy workers with stale heartbeats wedged: charge the
/// in-flight request as a deadline miss, retire the thread in place,
/// and schedule a replacement.
fn scan_for_wedged(ctl: &Arc<SuperCtl>) {
    let now = Instant::now();
    for (index, slot) in ctl.slots.iter().enumerate() {
        if !slot.busy.load(Ordering::Acquire) || slot.stale_for(now) < ctl.wedge_after {
            continue;
        }
        let inflight = slot.wedge_take();
        ctr::SERVE_WEDGES.add(1);
        if pmm_obs::enabled() {
            let victim = inflight
                .as_ref()
                .map_or_else(|| "idle".to_string(), |f| f.trace.to_string());
            let mut t = Tracer::start();
            t.instant(Stage::Restart, "wedged", &format!("worker={} victim={victim}", slot.index));
        }
        if let Some(inflight) = inflight {
            // The wedged worker never answered: the supervisor does,
            // charging the stall as a deadline miss so the SLO window
            // sees it.
            ctr::SERVE_DEADLINE_MISSES.add(1);
            pmm_trace::hist::H_TOTAL.observe(inflight.enqueued.elapsed());
            let _ = inflight.reply.send(Err(ServeError::DeadlineExceeded { stage: "wedged" }));
        }
        let mut st = ctl.lock_state();
        if let Some(h) = st.slot_mut(index).handle.take() {
            // The thread is alive but disowned; it exits at its next
            // retirement check and is joined at shutdown.
            st.zombies.push(h);
        }
        schedule_respawn(ctl, &mut st, index, now);
    }
}

/// Drain death notices (panic exits) into pending respawns.
fn process_deaths(ctl: &Arc<SuperCtl>) {
    let now = Instant::now();
    let mut st = ctl.lock_state();
    let dead: Vec<(usize, u64)> = st.dead.drain(..).collect();
    for (index, gen) in dead {
        if ctl.slot(index).generation() != gen {
            // A stale notice from an already-retired tenant; its
            // handle is in the zombie list.
            continue;
        }
        if let Some(h) = st.slot_mut(index).handle.take() {
            // The worker announced death as its last act; the join is
            // immediate.
            // pmm-audit: allow(guard-across-blocking) — the joined thread pushed its death notice as its final statement and never takes the supervisor state lock on its exit path, so the join returns immediately and cannot deadlock against the guard
            let _ = h.join();
        }
        schedule_respawn(ctl, &mut st, index, now);
    }
}

/// Arm a slot's respawn timer, or abandon the slot when the restart
/// budget is spent. Caller holds the state lock.
fn schedule_respawn(ctl: &Arc<SuperCtl>, st: &mut SuperState, index: usize, now: Instant) {
    let slot = &ctl.slot(index);
    if slot.given_up() || st.slot_mut(index).respawn_at.is_some() {
        return;
    }
    let consec = slot.consec.fetch_add(1, Ordering::AcqRel) + 1;
    if consec > ctl.cfg.max_restarts {
        slot.given_up.store(true, Ordering::Release);
        ctr::SERVE_GIVEUPS.add(1);
        if pmm_obs::enabled() {
            let mut t = Tracer::start();
            t.instant(Stage::Restart, "give_up", &format!("worker={index} consec={consec}"));
        }
        if ctl.slots.iter().all(WorkerSlot::given_up) {
            ctl.degraded.store(true, Ordering::Release);
        }
        return;
    }
    // Exponential backoff: base × 2^(consec-1), capped at 1s.
    let exp = consec.saturating_sub(1).min(16);
    let delay = ctl
        .cfg
        .restart_backoff
        .saturating_mul(1u32 << exp)
        .min(Duration::from_secs(1));
    st.slot_mut(index).respawn_at = Some(now + delay);
}

/// Spawn replacements whose backoff has elapsed.
fn respawn_due<E: ServeEngine + 'static>(
    ctl: &Arc<SuperCtl>,
    shared: &Arc<Shared>,
    snaps: &Arc<Snapshots<E>>,
) {
    let now = Instant::now();
    let mut st = ctl.lock_state();
    for index in 0..ctl.slots.len() {
        let due = matches!(st.slot_mut(index).respawn_at, Some(at) if at <= now);
        if !due || ctl.slot(index).given_up() {
            continue;
        }
        st.slot_mut(index).respawn_at = None;
        ctr::SERVE_WORKER_RESTARTS.add(1);
        pmm_trace::metrics::workers::record_restart(index);
        let slot = &ctl.slot(index);
        slot.restarts.fetch_add(1, Ordering::Relaxed);
        if pmm_obs::enabled() {
            let mut t = Tracer::start();
            t.instant(
                Stage::Restart,
                "respawn",
                &format!("worker={index} consec={}", slot.consec.load(Ordering::Acquire)),
            );
        }
        let handle = spawn_worker(ctl, shared, snaps, index);
        st.slot_mut(index).handle = Some(handle);
    }
}

/// Every slot is abandoned: the supervisor itself keeps requests
/// resolving from the model-free floor until a snapshot swap revives
/// the pool.
fn drain_degraded(ctl: &Arc<SuperCtl>, shared: &Arc<Shared>, epoch: u64) {
    while let Some(job) = shared.queue.try_pop() {
        if ctl.shutting_down() {
            return;
        }
        let mut tracer = Tracer::resume(job.trace, job.resume_seq);
        let request_clock = tracer.begin(Stage::Request);
        tracer.observe(Stage::Queue, job.enqueued.elapsed(), "ok", "degraded");
        respond_floor(shared, &ReplyCtx { owner: None, epoch }, &mut tracer, request_clock, &job);
    }
}
