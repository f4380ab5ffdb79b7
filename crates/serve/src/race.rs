//! Yield-point hooks wiring the serving stack into `pmm-audit`'s
//! deterministic interleaving harness.
//!
//! The protocol entry points the static auditor flags as risky — reply
//! claim vs wedge takeover, swap-epoch publish vs worker rebuild —
//! each call [`yield_point`] before
//! taking any lock. Disarmed (the production state, and every test
//! that never arms) that is one relaxed-cost atomic load; armed, it
//! forwards to the installed hook, which parks the thread until the
//! harness scheduler hands the grant back. Yield points sit strictly
//! *outside* critical sections: a thread parked while holding a real
//! mutex would be a deadlock the scheduler cannot schedule its way out
//! of (see `pmm_audit::sched` ground rules).
//!
//! Arming is one-way and process-wide. Threads the harness did not
//! spawn fall through the hook as a no-op, so the rest of the test
//! suite is unaffected even after a race test has armed the hook.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

static ARMED: AtomicBool = AtomicBool::new(false);
static HOOK: Mutex<Option<fn(&str)>> = Mutex::new(None);

/// Install `hook` and arm every yield point. Idempotent; never
/// disarmed (the hook itself no-ops on non-harness threads).
#[cfg(test)]
pub(crate) fn arm(hook: fn(&str)) {
    let mut guard = HOOK.lock().unwrap_or_else(PoisonError::into_inner);
    *guard = Some(hook);
    drop(guard);
    ARMED.store(true, Ordering::Release);
}

/// A schedulable point in a cross-thread protocol. Free when disarmed.
#[inline]
pub(crate) fn yield_point(site: &str) {
    if ARMED.load(Ordering::Acquire) {
        parked(site);
    }
}

#[cold]
fn parked(site: &str) {
    // Copy the hook out before calling it: the hook parks this thread
    // until the scheduler re-grants it, and holding `HOOK` while
    // parked would stall every other yielding thread for real.
    let hook = {
        let guard = HOOK.lock().unwrap_or_else(PoisonError::into_inner);
        *guard
    };
    if let Some(h) = hook {
        h(site);
    }
}

#[cfg(test)]
mod tests {
    use crate::server::{Response, ServeError};
    use crate::supervisor::WorkerSlot;
    use crate::swap::Snapshots;
    use pmm_audit::sched::{explore, yield_here, Case, ThreadFn};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Instant;

    fn armed() {
        super::arm(yield_here);
    }

    // --- Protocol 1: reply claim vs wedge takeover -------------------

    /// One parked request, three contenders: the owning worker claiming
    /// at its live generation, the watchdog wedging the slot over, and
    /// a stale tenant claiming at a retired generation. `racy` swaps
    /// the worker's `claim_if` for the seeded TOCTOU peek.
    fn claim_case(racy: bool) -> Case {
        let slot = Arc::new(WorkerSlot::new(0, Instant::now()));
        let gen = slot.install_tenant();
        let (tx, rx) = mpsc::channel::<Result<Response, ServeError>>();
        let worker_tx = tx.clone();
        let stale_tx = tx.clone();
        slot.race_park(tx);

        let w_slot = Arc::clone(&slot);
        let worker: ThreadFn = Box::new(move || {
            yield_here("worker-start");
            if racy {
                if let Some(reply) = w_slot.race_claim_peek(gen) {
                    let _ = reply.send(Err(ServeError::DeadlineExceeded { stage: "race-worker" }));
                }
            } else if w_slot.claim_if(gen) {
                let _ = worker_tx.send(Err(ServeError::DeadlineExceeded { stage: "race-worker" }));
            }
        });

        let d_slot = Arc::clone(&slot);
        let watchdog: ThreadFn = Box::new(move || {
            yield_here("watchdog-start");
            if let Some(inflight) = d_slot.wedge_take() {
                let _ =
                    inflight.reply.send(Err(ServeError::DeadlineExceeded { stage: "race-wedged" }));
            }
        });

        let s_slot = Arc::clone(&slot);
        let stale: ThreadFn = Box::new(move || {
            yield_here("stale-start");
            if s_slot.claim_if(gen.wrapping_sub(1)) {
                let _ = stale_tx.send(Err(ServeError::DeadlineExceeded { stage: "race-stale" }));
            }
        });

        Case {
            threads: vec![worker, watchdog, stale],
            check: Box::new(move || {
                let replies = rx.try_iter().count();
                if replies == 1 {
                    Ok(())
                } else {
                    Err(format!("exactly-one-reply violated: {replies} replies sent"))
                }
            }),
        }
    }

    /// The shipped claim protocol: exactly one reply on every schedule.
    #[test]
    fn claim_vs_wedge_is_exactly_one_reply() {
        armed();
        let exp = explore("claim-vs-wedge", 0x0C1A_1140, 600, 200, |_| claim_case(false));
        assert!(exp.distinct >= 200, "only {} distinct schedules", exp.distinct);
        assert!(exp.violations.is_empty(), "real protocol double-replied: {:?}", exp.violations);
    }

    /// The seeded TOCTOU peek double-replies on some schedule, and the
    /// printed seed replays it alone.
    #[test]
    fn seeded_claim_peek_double_replies_and_replays() {
        armed();
        let exp = explore("claim-peek-seeded", 0x0C1A_1141, 3000, 200, |_| claim_case(true));
        assert!(exp.distinct >= 200, "only {} distinct schedules", exp.distinct);
        assert!(!exp.violations.is_empty(), "sweep failed to find the seeded double-reply");
        let (seed, msg) = exp.violations[0].clone();
        assert!(msg.contains("exactly-one-reply"), "unexpected violation: {msg}");
        let replay = explore("claim-peek-replay", seed, 1, 1, |_| claim_case(true));
        assert_eq!(replay.violations.len(), 1, "replay seed {seed} did not reproduce");
        assert_eq!(replay.violations[0].0, seed);
    }

    // --- Protocol 2: swap-epoch publish vs worker rebuild ------------

    /// A publisher sweeping epochs 1..=2 against two rebuilding
    /// readers. Factories are rigged so a consistent read always has
    /// `factory() == epoch` and `cut == 10 * epoch`; any unpaired
    /// combination is a worker building epoch N's engine from epoch
    /// N+1's parts. `racy` swaps `current()` for the seeded
    /// epoch-outside-the-lock read.
    fn swap_case(racy: bool) -> Case {
        let snaps: Arc<Snapshots<u64>> = Arc::new(Snapshots::new(Arc::new(|| 0)));
        let seen: Arc<Mutex<Vec<(u64, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));

        let p_snaps = Arc::clone(&snaps);
        let publisher: ThreadFn = Box::new(move || {
            for v in 1u64..=2 {
                yield_here("publisher-step");
                p_snaps.publish(Arc::new(move || v), v * 10);
            }
        });

        let threads: Vec<ThreadFn> = std::iter::once(publisher)
            .chain((0..2).map(|_| {
                let r_snaps = Arc::clone(&snaps);
                let r_seen = Arc::clone(&seen);
                Box::new(move || {
                    for _ in 0..2 {
                        yield_here("reader-step");
                        let (factory, epoch, cut) = if racy {
                            r_snaps.race_current_unpaired()
                        } else {
                            r_snaps.current()
                        };
                        r_seen.lock().unwrap().push((factory(), epoch, cut));
                    }
                }) as ThreadFn
            }))
            .collect();

        Case {
            threads,
            check: Box::new(move || {
                let reads = seen.lock().unwrap();
                for &(built, epoch, cut) in reads.iter() {
                    if built != epoch || cut != epoch * 10 {
                        return Err(format!(
                            "no-epoch-pairing violated: built snapshot {built} \
                             tagged epoch {epoch} with cut {cut}"
                        ));
                    }
                }
                Ok(())
            }),
        }
    }

    /// `Snapshots::current` reads factory, epoch, and cut under one
    /// guard: no schedule can tear them apart.
    #[test]
    fn swap_publish_never_pairs_epochs_apart() {
        armed();
        let exp = explore("swap-pairing", 0x51AB_0001, 600, 200, |_| swap_case(false));
        assert!(exp.distinct >= 200, "only {} distinct schedules", exp.distinct);
        assert!(exp.violations.is_empty(), "consistent read tore: {:?}", exp.violations);
    }

    /// The seeded epoch-outside-the-lock read tears on some schedule
    /// and replays from its seed.
    #[test]
    fn seeded_unpaired_epoch_read_tears_and_replays() {
        armed();
        let exp = explore("swap-unpaired-seeded", 0x51AB_0002, 3000, 200, |_| swap_case(true));
        assert!(exp.distinct >= 200, "only {} distinct schedules", exp.distinct);
        assert!(!exp.violations.is_empty(), "sweep failed to find the seeded unpaired read");
        let (seed, msg) = exp.violations[0].clone();
        assert!(msg.contains("no-epoch-pairing"), "unexpected violation: {msg}");
        let replay = explore("swap-unpaired-replay", seed, 1, 1, |_| swap_case(true));
        assert_eq!(replay.violations.len(), 1, "replay seed {seed} did not reproduce");
    }
}
