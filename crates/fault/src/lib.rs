//! # pmm-fault
//!
//! Deterministic fault injection for chaos-testing the training and
//! serving runtime. A [`FaultPlan`] names exactly *which* occurrence of
//! each guarded operation misbehaves, so every recovery path (anomaly
//! skip, LR backoff, rollback, checkpoint fallback, IO retry) can be
//! exercised reproducibly in tests and in the `chaos_smoke` binary.
//!
//! Six trip points are offered to the rest of the workspace:
//!
//! * [`trip_nan_loss`] — consulted once per optimisation step; when it
//!   fires, the training loop poisons that step's loss with NaN.
//! * [`trip_corrupt_save`] — consulted once per rotating checkpoint
//!   save; when it fires, the freshly written file is truncated to
//!   simulate a crash mid-write / on-disk corruption.
//! * [`with_io_retry`] — wraps a fallible IO operation; the plan can
//!   force the first attempt of the N-th guarded operation to fail,
//!   exercising the retry-with-backoff path.
//! * [`trip_encode`] — consulted once per serving-side encoder call;
//!   the plan can make the N-th call fail (`err@N`) or stall (`slow@N`)
//!   so the serving runtime's circuit breakers, deadlines, and
//!   degradation ladder can be exercised deterministically.
//! * [`trip_worker`] — consulted once per serving-worker request
//!   execution; the plan can make the N-th execution panic
//!   (`panic@N`) or wedge (`stall@N`) so the supervisor's panic
//!   isolation, restart budget, and heartbeat watchdog can be
//!   exercised deterministically.
//! * [`trip_wal_corrupt`] — consulted once per WAL record append; the
//!   plan can tear the N-th frame mid-write (`wal_corrupt@N`) so
//!   replay's truncate-and-count path can be exercised.
//!
//! With no plan installed every trip point is a no-op costing one
//! thread-local lookup and one atomic load, so production code can
//! call them unconditionally.
//!
//! Every fault that actually fires also bumps the per-kind
//! `pmm_obs::counter::FAULTS_*` counter (when collection is enabled),
//! so chaos binaries can report injection coverage by kind.
//!
//! ## Scoping
//!
//! A plan belongs to a [`Faults`] scope, not to the process. Every
//! thread has a current scope, created empty on first use;
//! [`install`], [`clear`], the `fired*` readers and every trip point
//! act on the calling thread's scope. Faults still cross crate
//! boundaries exactly as real ones do, but only along the thread that
//! armed them, so parallel tests (or two servers in one process)
//! never observe or consume each other's occurrences.
//!
//! A thread spawned on behalf of a scoped caller joins that caller's
//! scope with [`current`] (read on the spawning thread) and [`enter`]
//! (called first thing on the new thread). The serving supervisor does
//! this for itself and every worker it spawns or respawns, so a server
//! shares the scope of the thread that started it: a plan armed on
//! that thread, before or after the server starts, reaches its workers,
//! and they number occurrences together with it.
//!
//! Invariant: trip points are never consulted inside a `pmm_par`
//! worker. Those scoped threads do not enter the caller's scope, so a
//! trip there would silently never fire; code that needs per-chunk
//! faults must consume its trips sequentially on the calling thread
//! before dispatching the chunks.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Which occurrences (0-based) of each guarded operation misbehave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Optimisation steps whose loss is poisoned with NaN.
    pub nan_steps: Vec<u64>,
    /// Rotating checkpoint saves whose file is truncated after write.
    pub corrupt_saves: Vec<u64>,
    /// Guarded IO operations whose first attempt fails with an
    /// injected `io::Error` (the retry succeeds).
    pub io_failures: Vec<u64>,
    /// Serving-side encoder calls that stall (simulated overload; the
    /// caller sleeps its configured slow duration, typically long
    /// enough to blow a request deadline).
    pub slow_encodes: Vec<u64>,
    /// Serving-side encoder calls that fail outright (the circuit
    /// breaker's error window sees these).
    pub err_encodes: Vec<u64>,
    /// Serving-worker request executions that panic mid-request (the
    /// supervisor's `catch_unwind` + respawn path sees these).
    pub panic_workers: Vec<u64>,
    /// Serving-worker request executions that wedge — stall well past
    /// the heartbeat deadline so the watchdog declares the worker
    /// stuck and replaces it.
    pub stall_workers: Vec<u64>,
    /// WAL record appends whose frame is torn mid-write (only a prefix
    /// of the frame reaches the log, simulating a crash between the
    /// write and the fsync). Replay must truncate and count the tail.
    pub wal_corrupts: Vec<u64>,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.nan_steps.is_empty()
            && self.corrupt_saves.is_empty()
            && self.io_failures.is_empty()
            && self.slow_encodes.is_empty()
            && self.err_encodes.is_empty()
            && self.panic_workers.is_empty()
            && self.stall_workers.is_empty()
            && self.wal_corrupts.is_empty()
    }

    /// Parses a plan spec: comma-separated `kind@N` tokens where kind
    /// is `nan` (training step), `ckpt` (rotating save), `io` (guarded
    /// IO operation), `slow` or `err` (serving encoder call), `panic`
    /// or `stall` (serving-worker request execution) or `wal_corrupt`
    /// (WAL record append), e.g. `"nan@3,ckpt@1,io@0,slow@2,err@5,panic@3,wal_corrupt@4"`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, idx) = token
                .split_once('@')
                .ok_or_else(|| format!("fault token {token:?} is not kind@N"))?;
            let n: u64 = idx
                .parse()
                .map_err(|_| format!("fault token {token:?}: {idx:?} is not an integer"))?;
            match kind {
                "nan" => plan.nan_steps.push(n),
                "ckpt" => plan.corrupt_saves.push(n),
                "io" => plan.io_failures.push(n),
                "slow" => plan.slow_encodes.push(n),
                "err" => plan.err_encodes.push(n),
                "panic" => plan.panic_workers.push(n),
                "stall" => plan.stall_workers.push(n),
                "wal_corrupt" => plan.wal_corrupts.push(n),
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (use nan|ckpt|io|slow|err|panic|stall|wal_corrupt)"
                    ))
                }
            }
        }
        plan.nan_steps.sort_unstable();
        plan.corrupt_saves.sort_unstable();
        plan.io_failures.sort_unstable();
        plan.slow_encodes.sort_unstable();
        plan.err_encodes.sort_unstable();
        plan.panic_workers.sort_unstable();
        plan.stall_workers.sort_unstable();
        plan.wal_corrupts.sort_unstable();
        Ok(plan)
    }
}

/// An installed plan plus per-kind occurrence counters.
#[derive(Debug, Default)]
struct ActivePlan {
    plan: FaultPlan,
    steps_seen: u64,
    saves_seen: u64,
    ios_seen: u64,
    encodes_seen: u64,
    workers_seen: u64,
    wal_appends_seen: u64,
    fired_nan: u64,
    fired_corrupt: u64,
    fired_io: u64,
    fired_slow: u64,
    fired_err: u64,
    fired_panic: u64,
    fired_stall: u64,
    fired_wal: u64,
}

/// A fault scope: at most one installed plan, its per-kind occurrence
/// and fired counters, and the armed flag that keeps trip points cheap
/// while nothing is installed. Clones share the scope; see the crate
/// docs for how threads join one.
#[derive(Debug, Clone, Default)]
pub struct Faults(Arc<Scope>);

#[derive(Debug, Default)]
struct Scope {
    /// Fast-path switch: true only while a non-empty plan is installed.
    armed: AtomicBool,
    active: Mutex<Option<ActivePlan>>,
}

impl Faults {
    fn lock(&self) -> MutexGuard<'_, Option<ActivePlan>> {
        self.0.active.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    static CURRENT: RefCell<Faults> = RefCell::new(Faults::default());
}

/// The calling thread's scope. Hand it to a thread spawned on this
/// thread's behalf, which joins it with [`enter`].
pub fn current() -> Faults {
    CURRENT.with(|c| c.borrow().clone())
}

/// Make `faults` the calling thread's scope: its plan, occurrence
/// numbering, and `fired*` counts are shared from here on.
pub fn enter(faults: Faults) {
    CURRENT.with(|c| *c.borrow_mut() = faults);
}

/// Runs `f` on the calling thread's installed plan, if any. With
/// `armed_only`, returns `None` after one atomic load while nothing is
/// armed (the trip-point fast path). A thread whose locals are already
/// torn down has no plan.
fn with_plan<R>(armed_only: bool, f: impl FnOnce(&mut ActivePlan) -> R) -> Option<R> {
    CURRENT
        .try_with(|c| {
            let faults = c.borrow();
            if armed_only && !faults.0.armed.load(Ordering::Acquire) {
                return None;
            }
            let mut active = faults.lock();
            active.as_mut().map(f)
        })
        .ok()
        .flatten()
}

/// Install `plan` in the calling thread's scope, replacing any previous
/// one and resetting counters.
pub fn install(plan: FaultPlan) {
    let faults = current();
    let mut active = faults.lock();
    faults.0.armed.store(!plan.is_empty(), Ordering::Release);
    *active = Some(ActivePlan { plan, ..Default::default() });
}

/// Remove the calling thread's installed plan; its trip points become
/// no-ops again.
pub fn clear() {
    let faults = current();
    let mut active = faults.lock();
    faults.0.armed.store(false, Ordering::Release);
    *active = None;
}

/// Counts of faults actually fired so far: `(nan, corrupt, io)`.
pub fn fired() -> (u64, u64, u64) {
    with_plan(false, |a| (a.fired_nan, a.fired_corrupt, a.fired_io)).unwrap_or_default()
}

/// Counts of serving-encoder faults fired so far: `(slow, err)`.
pub fn fired_encode() -> (u64, u64) {
    with_plan(false, |a| (a.fired_slow, a.fired_err)).unwrap_or_default()
}

/// Counts of serving-worker faults fired so far: `(panic, stall)`.
pub fn fired_worker() -> (u64, u64) {
    with_plan(false, |a| (a.fired_panic, a.fired_stall)).unwrap_or_default()
}

/// Count of ingestion (`wal_corrupt`) faults fired so far.
pub fn fired_ingest() -> u64 {
    with_plan(false, |a| a.fired_wal).unwrap_or_default()
}

/// Consume one optimisation-step occurrence; true when this step's
/// loss should be poisoned with NaN.
pub fn trip_nan_loss() -> bool {
    with_plan(true, |a| {
        let n = a.steps_seen;
        a.steps_seen += 1;
        let hit = a.plan.nan_steps.binary_search(&n).is_ok();
        if hit {
            a.fired_nan += 1;
            pmm_obs::counter::FAULTS_NAN.add(1);
        }
        hit
    })
    .unwrap_or(false)
}

/// What an injected serving-encoder fault does to the guarded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeFault {
    /// The call stalls (the caller sleeps its configured slow
    /// duration) and then succeeds — a tail-latency fault.
    Slow,
    /// The call fails outright — a component-error fault.
    Err,
}

/// Consume one serving-encoder-call occurrence; `Some` when this call
/// should misbehave. When the same occurrence is listed under both
/// `slow@N` and `err@N`, the error wins (it is the harsher fault).
pub fn trip_encode() -> Option<EncodeFault> {
    with_plan(true, |a| {
        let n = a.encodes_seen;
        a.encodes_seen += 1;
        if a.plan.err_encodes.binary_search(&n).is_ok() {
            a.fired_err += 1;
            pmm_obs::counter::FAULTS_ERR.add(1);
            Some(EncodeFault::Err)
        } else if a.plan.slow_encodes.binary_search(&n).is_ok() {
            a.fired_slow += 1;
            pmm_obs::counter::FAULTS_SLOW.add(1);
            Some(EncodeFault::Slow)
        } else {
            None
        }
    })
    .flatten()
}

/// What an injected serving-worker fault does to the guarded request
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The execution panics mid-request — the supervisor's
    /// `catch_unwind` isolation and respawn path see this.
    Panic,
    /// The execution wedges: the worker stalls without stamping its
    /// heartbeat until the watchdog declares it stuck.
    Stall,
}

/// Consume one serving-worker request-execution occurrence; `Some`
/// when this execution should misbehave. When the same occurrence is
/// listed under both `panic@N` and `stall@N`, the panic wins (it is
/// the harsher fault).
pub fn trip_worker() -> Option<WorkerFault> {
    with_plan(true, |a| {
        let n = a.workers_seen;
        a.workers_seen += 1;
        if a.plan.panic_workers.binary_search(&n).is_ok() {
            a.fired_panic += 1;
            pmm_obs::counter::FAULTS_PANIC.add(1);
            Some(WorkerFault::Panic)
        } else if a.plan.stall_workers.binary_search(&n).is_ok() {
            a.fired_stall += 1;
            pmm_obs::counter::FAULTS_STALL.add(1);
            Some(WorkerFault::Stall)
        } else {
            None
        }
    })
    .flatten()
}

/// Consume one WAL record-append occurrence; true when the frame
/// should be torn mid-write (only a prefix of the frame reaches the
/// log, as if the process crashed between write and fsync).
pub fn trip_wal_corrupt() -> bool {
    with_plan(true, |a| {
        let n = a.wal_appends_seen;
        a.wal_appends_seen += 1;
        let hit = a.plan.wal_corrupts.binary_search(&n).is_ok();
        if hit {
            a.fired_wal += 1;
            pmm_obs::counter::FAULTS_WAL.add(1);
        }
        hit
    })
    .unwrap_or(false)
}

/// Consume one rotating-save occurrence; true when the written file
/// should be corrupted afterwards.
pub fn trip_corrupt_save() -> bool {
    with_plan(true, |a| {
        let n = a.saves_seen;
        a.saves_seen += 1;
        let hit = a.plan.corrupt_saves.binary_search(&n).is_ok();
        if hit {
            a.fired_corrupt += 1;
            pmm_obs::counter::FAULTS_CKPT.add(1);
        }
        hit
    })
    .unwrap_or(false)
}

/// Consume one guarded-IO occurrence; true when its first attempt
/// should fail.
fn trip_io_failure() -> bool {
    with_plan(true, |a| {
        let n = a.ios_seen;
        a.ios_seen += 1;
        let hit = a.plan.io_failures.binary_search(&n).is_ok();
        if hit {
            a.fired_io += 1;
            pmm_obs::counter::FAULTS_IO.add(1);
        }
        hit
    })
    .unwrap_or(false)
}

/// Maximum attempts [`with_io_retry`] makes (1 initial + 2 retries).
pub const IO_ATTEMPTS: u32 = 3;

/// Runs a fallible IO operation with bounded retry and exponential
/// backoff (1 ms, 4 ms). An installed plan can force the first attempt
/// of the N-th guarded operation to fail with an injected error.
/// Returns the first success or the last error.
pub fn with_io_retry<T>(
    what: &str,
    op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    with_io_retry_notify(what, op, |_, _| {})
}

/// [`with_io_retry`] with an `on_retry(attempt, error)` callback fired
/// before each backoff sleep — the hook observability layers use to
/// count retries without this crate depending on them.
pub fn with_io_retry_notify<T>(
    what: &str,
    mut op: impl FnMut() -> std::io::Result<T>,
    mut on_retry: impl FnMut(u32, &std::io::Error),
) -> std::io::Result<T> {
    let inject = trip_io_failure();
    let mut last_err = None;
    for attempt in 0..IO_ATTEMPTS {
        if attempt == 0 && inject {
            last_err = Some(std::io::Error::other(format!("injected fault: {what}")));
        } else {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => last_err = Some(e),
            }
        }
        if attempt + 1 < IO_ATTEMPTS {
            if let Some(e) = &last_err {
                on_retry(attempt, e);
            }
            std::thread::sleep(Duration::from_millis(1 << (2 * attempt)));
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other(format!("{what}: no attempts made"))))
}

/// Truncate `path` to half its length (at least cutting one byte) —
/// the canonical "crashed mid-write" corruption used when
/// [`trip_corrupt_save`] fires.
pub fn corrupt_file(path: &std::path::Path) -> std::io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    let keep = (len / 2).min(len.saturating_sub(1));
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_kinds_and_sorts() {
        let p = FaultPlan::parse("nan@4, nan@2,ckpt@1,io@0,slow@7,err@3,err@1").unwrap();
        assert_eq!(p.nan_steps, vec![2, 4]);
        assert_eq!(p.corrupt_saves, vec![1]);
        assert_eq!(p.io_failures, vec![0]);
        assert_eq!(p.slow_encodes, vec![7]);
        assert_eq!(p.err_encodes, vec![1, 3]);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn encode_trips_fire_on_exact_occurrences_with_err_precedence() {
        install(FaultPlan::parse("slow@0,slow@2,err@2").unwrap());
        assert_eq!(trip_encode(), Some(EncodeFault::Slow)); // call 0
        assert_eq!(trip_encode(), None); // call 1
        assert_eq!(trip_encode(), Some(EncodeFault::Err)); // call 2: err wins
        assert_eq!(trip_encode(), None); // call 3
        assert_eq!(fired_encode(), (1, 1));
        clear();
        assert_eq!(trip_encode(), None);
    }

    #[test]
    fn worker_trips_fire_on_exact_occurrences_with_panic_precedence() {
        install(FaultPlan::parse("panic@0,stall@2,panic@2,stall@3").unwrap());
        assert_eq!(trip_worker(), Some(WorkerFault::Panic)); // execution 0
        assert_eq!(trip_worker(), None); // execution 1
        assert_eq!(trip_worker(), Some(WorkerFault::Panic)); // execution 2: panic wins
        assert_eq!(trip_worker(), Some(WorkerFault::Stall)); // execution 3
        assert_eq!(trip_worker(), None); // execution 4
        assert_eq!(fired_worker(), (2, 1));
        clear();
        assert_eq!(trip_worker(), None);
    }

    #[test]
    fn parse_accepts_worker_kinds() {
        let p = FaultPlan::parse("panic@3, panic@1,stall@5").unwrap();
        assert_eq!(p.panic_workers, vec![1, 3]);
        assert_eq!(p.stall_workers, vec![5]);
        assert!(!p.is_empty());
    }

    #[test]
    fn parse_accepts_ingest_kinds() {
        let p = FaultPlan::parse("wal_corrupt@3, wal_corrupt@1").unwrap();
        assert_eq!(p.wal_corrupts, vec![1, 3]);
        assert!(!p.is_empty());
    }

    #[test]
    fn wal_trips_fire_on_exact_occurrences() {
        install(FaultPlan::parse("wal_corrupt@1").unwrap());
        assert!(!trip_wal_corrupt()); // append 0
        assert!(trip_wal_corrupt()); // append 1
        assert!(!trip_wal_corrupt()); // append 2
        assert_eq!(fired_ingest(), 1);
        clear();
        assert!(!trip_wal_corrupt());
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        assert!(FaultPlan::parse("nan").is_err());
        assert!(FaultPlan::parse("nan@x").is_err());
        assert!(FaultPlan::parse("disk@3").is_err());
    }

    #[test]
    fn trips_fire_on_exact_occurrences() {
        install(FaultPlan::parse("nan@1,ckpt@0").unwrap());
        assert!(!trip_nan_loss()); // step 0
        assert!(trip_nan_loss()); // step 1
        assert!(!trip_nan_loss()); // step 2
        assert!(trip_corrupt_save()); // save 0
        assert!(!trip_corrupt_save()); // save 1
        assert_eq!(fired(), (1, 1, 0));
        clear();
        assert!(!trip_nan_loss());
    }

    #[test]
    fn io_retry_recovers_from_injected_failure() {
        install(FaultPlan::parse("io@0").unwrap());
        let mut calls = 0;
        let out = with_io_retry("read", || {
            calls += 1;
            Ok::<_, std::io::Error>(7)
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 1, "first attempt consumed by the injected error");
        assert_eq!(fired().2, 1);
        clear();
    }

    #[test]
    fn io_retry_surfaces_persistent_errors() {
        clear();
        let mut calls = 0;
        let out: std::io::Result<()> = with_io_retry("read", || {
            calls += 1;
            Err(std::io::Error::other("always down"))
        });
        assert!(out.is_err());
        assert_eq!(calls, IO_ATTEMPTS);
    }

    #[test]
    fn plans_are_neither_seen_nor_consumed_by_sibling_threads() {
        install(FaultPlan::parse("nan@0,nan@1").unwrap());
        // A sibling running trip points while this thread's plan is
        // armed sees none of it; its own plan is its own.
        let sibling = std::thread::spawn(|| {
            let stray = (0..50).filter(|_| trip_nan_loss()).count();
            let stray_fired = fired();
            install(FaultPlan::parse("nan@3").unwrap());
            let own: Vec<bool> = (0..5).map(|_| trip_nan_loss()).collect();
            (stray, stray_fired, own, fired())
        });
        let (stray, stray_fired, own, own_fired) = sibling.join().unwrap();
        assert_eq!(stray, 0, "sibling thread observed this thread's plan");
        assert_eq!(stray_fired, (0, 0, 0));
        assert_eq!(own, vec![false, false, false, true, false]);
        assert_eq!(own_fired, (1, 0, 0));
        // ...and consumed none of this thread's occurrences.
        assert!(trip_nan_loss()); // step 0
        assert!(trip_nan_loss()); // step 1
        assert!(!trip_nan_loss()); // step 2
        assert_eq!(fired(), (2, 0, 0));
        clear();
    }

    #[test]
    fn entered_threads_share_occurrences_and_fired_counts() {
        install(FaultPlan::parse("panic@1,wal_corrupt@0").unwrap());
        assert_eq!(trip_worker(), None); // execution 0, here
        let scope = current();
        let joined = std::thread::spawn(move || {
            enter(scope);
            let worker = trip_worker(); // execution 1, on the joined thread
            let wal = trip_wal_corrupt(); // append 0
            (worker, wal, fired_worker(), fired_ingest())
        });
        let (worker, wal, worker_fired, ingest_fired) = joined.join().unwrap();
        assert_eq!(worker, Some(WorkerFault::Panic));
        assert!(wal);
        assert_eq!(worker_fired, (1, 0));
        assert_eq!(ingest_fired, 1);
        assert_eq!(trip_worker(), None); // execution 2, back here
        assert!(!trip_wal_corrupt()); // append 1
        assert_eq!(fired_worker(), (1, 0));
        assert_eq!(fired_ingest(), 1);
        clear();
    }

    #[test]
    fn corrupt_file_truncates() {
        let path = std::env::temp_dir().join(format!("pmm_fault_corrupt_{}", std::process::id()));
        std::fs::write(&path, vec![7u8; 100]).unwrap();
        corrupt_file(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 50);
        std::fs::remove_file(&path).ok();
    }
}
