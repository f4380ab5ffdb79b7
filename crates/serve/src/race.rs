//! Yield-point hooks wiring the serving stack into `pmm-audit`'s
//! deterministic interleaving harness.
//!
//! The protocol entry points the static auditor flags as risky — reply
//! claim vs wedge takeover, swap-epoch publish vs worker rebuild,
//! shard quarantine vs revive — each call [`yield_point`] before
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
    use crate::shards::{ShardConfig, ShardHealth, ShardPool};
    use crate::supervisor::WorkerSlot;
    use crate::swap::Snapshots;
    use pmm_audit::sched::{explore, yield_here, Case, ThreadFn};
    use pmm_trace::{Stage, Tracer};
    use pmmrec::{PartialShards, Recommendation};
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

    // --- Protocol 3: shard quarantine vs revive under rank -----------

    fn exhaustive(scores: &[f32], k: usize) -> Vec<Recommendation> {
        let mut all: Vec<Recommendation> = scores
            .iter()
            .enumerate()
            .map(|(item, &score)| Recommendation { item, score })
            .collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score));
        all.truncate(k);
        all
    }

    /// A ranker scatter-gathering twice while a chaos thread
    /// quarantines shards mid-flight and a swap thread revives the
    /// pool — the quarantine-vs-revive protocol, plus coverage for
    /// `merge_shard_top_k` under concurrent health transitions: on
    /// every schedule the merge must stay sorted, duplicate-free, and
    /// bit-identical to the exhaustive sort whenever coverage is full.
    fn shard_case() -> Case {
        let pool = Arc::new(ShardPool::new(ShardConfig { shards: Some(4), max_rebuilds: 1 }));
        let results: Arc<Mutex<Vec<(Vec<Recommendation>, PartialShards)>>> =
            Arc::new(Mutex::new(Vec::new()));

        let r_pool = Arc::clone(&pool);
        let r_results = Arc::clone(&results);
        let ranker: ThreadFn = Box::new(move || {
            let scores: Vec<f32> = (0..40).map(|i| ((i * 13) % 17) as f32).collect();
            for _ in 0..2 {
                yield_here("ranker-step");
                let mut tracer = Tracer::start();
                let got =
                    r_pool.rank(&scores, &[], 10, false, &tracer.begin(Stage::Rank), &mut tracer);
                r_results.lock().unwrap().push(got);
            }
        });

        let c_pool = Arc::clone(&pool);
        let chaos: ThreadFn = Box::new(move || {
            yield_here("chaos-step");
            c_pool.note_panic(1);
            yield_here("chaos-step");
            c_pool.note_panic(2);
        });

        let v_pool = Arc::clone(&pool);
        let reviver: ThreadFn = Box::new(move || {
            yield_here("reviver-step");
            v_pool.revive();
            yield_here("reviver-step");
            let _ = v_pool.health();
        });

        let h_pool = Arc::clone(&pool);
        Case {
            threads: vec![ranker, chaos, reviver],
            check: Box::new(move || {
                let scores: Vec<f32> = (0..40).map(|i| ((i * 13) % 17) as f32).collect();
                let want_full = exhaustive(&scores, 10);
                let runs = results.lock().unwrap();
                if runs.len() != 2 {
                    return Err(format!("ranker completed {} of 2 rank calls", runs.len()));
                }
                for (recs, cov) in runs.iter() {
                    if recs.len() > 10 {
                        return Err(format!("merge returned {} > k items", recs.len()));
                    }
                    for pair in recs.windows(2) {
                        if pair[1].score > pair[0].score {
                            return Err("merge output not sorted by score".to_string());
                        }
                    }
                    let mut items: Vec<usize> = recs.iter().map(|r| r.item).collect();
                    items.sort_unstable();
                    items.dedup();
                    if items.len() != recs.len() {
                        return Err("merge output contains duplicate items".to_string());
                    }
                    if cov.total != 4 || cov.served > cov.total {
                        return Err(format!("incoherent coverage {cov:?}"));
                    }
                    if cov.served == cov.total && *recs != want_full {
                        return Err("full coverage but merge differs from exhaustive".to_string());
                    }
                }
                // Whatever interleaved, every shard must land on a
                // legal rung of the ladder.
                for h in h_pool.health() {
                    match h {
                        ShardHealth::Healthy | ShardHealth::Quarantined | ShardHealth::GivenUp => {}
                    }
                }
                Ok(())
            }),
        }
    }

    /// Satellite coverage: `merge_shard_top_k` stays correct while
    /// quarantine and revive race the scatter-gather. Seed-pinned —
    /// the sweep is deterministic end to end.
    #[test]
    fn merge_top_k_survives_concurrent_quarantine_and_revive() {
        armed();
        let exp = explore("shard-quarantine-vs-revive", 0x5AAD_0003, 600, 200, |_| shard_case());
        assert!(exp.distinct >= 200, "only {} distinct schedules", exp.distinct);
        assert!(exp.violations.is_empty(), "merge invariants broke: {:?}", exp.violations);
    }
}
