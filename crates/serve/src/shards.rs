//! Sharded scatter-gather ranking with per-shard quarantine.
//!
//! The catalog is partitioned into contiguous item-id ranges
//! (shard-per-core by default). A request's exhaustive score row is
//! scattered across the shards, each shard selects its local top-k
//! under panic isolation, and the gather merges the per-shard lists
//! **bit-identically** to the exhaustive path (`pmmrec::shard_top_k`
//! / `pmmrec::merge_shard_top_k` share the exhaustive sort's
//! tie-breaking discipline, so shard count never changes an answer).
//!
//! Health follows the supervisor's restart-budget ladder, per shard:
//! a panicking shard is **quarantined** (skipped; the gather returns a
//! partial result tagged [`pmmrec::PartialShards`]); the next request
//! probes it with a **rebuild** attempt while budget remains; a shard
//! that exhausts its rebuild budget is **given up** and stays dark
//! until a snapshot swap revives the pool with a fresh budget. Every
//! transition is counted (`serve_shard_*`) and the served/total shard
//! ratio feeds the `shard_miss_rate` coverage SLO (≥ 75% by default).

use pmm_obs::counter as ctr;
use pmm_trace::{Stage, StageClock, Tracer};
use pmmrec::{merge_shard_top_k, shard_ranges, shard_top_k, PartialShards, Recommendation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Scatter-gather tuning.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Catalog shards; `None` follows [`pmm_par::threads`]
    /// (shard-per-core), so the `--threads` knob governs sharding too.
    pub shards: Option<usize>,
    /// Rebuild attempts a quarantined shard may burn before it is
    /// given up until the next snapshot swap.
    pub max_rebuilds: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: None, max_rebuilds: 3 }
    }
}

/// One shard's health rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Panicked on its last attempt; the next request probes a rebuild.
    Quarantined,
    /// Rebuild budget exhausted; dark until a snapshot swap revives it.
    GivenUp,
}

struct ShardState {
    health: ShardHealth,
    /// Rebuilds burned since the last revive.
    rebuilds: u32,
}

/// Shared shard health for the whole pool (every worker ranks through
/// the same shard map, so quarantine decisions are global, like
/// breakers).
pub(crate) struct ShardPool {
    n: usize,
    cfg: ShardConfig,
    states: Vec<Mutex<ShardState>>,
}

fn lock_state(m: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    // Health + rebuild count are valid at every instruction boundary.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardPool {
    pub(crate) fn new(cfg: ShardConfig) -> ShardPool {
        let n = cfg.shards.unwrap_or_else(pmm_par::threads).max(1);
        ShardPool {
            n,
            cfg,
            states: (0..n)
                .map(|_| Mutex::new(ShardState { health: ShardHealth::Healthy, rebuilds: 0 }))
                .collect(),
        }
    }

    /// Shard count.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Every shard's current health rung.
    pub(crate) fn health(&self) -> Vec<ShardHealth> {
        self.states.iter().map(|s| lock_state(s).health).collect()
    }

    /// Fresh budgets after a snapshot swap: a new snapshot is new code
    /// for shard crash loops too (mirrors the worker-slot revive).
    pub(crate) fn revive(&self) {
        crate::race::yield_point("shard-revive");
        for s in &self.states {
            let mut st = lock_state(s);
            st.health = ShardHealth::Healthy;
            st.rebuilds = 0;
        }
    }

    /// Admission decision for shard `i`, advancing the quarantine
    /// ladder: quarantined shards spend a rebuild (probe) while budget
    /// remains, then give up.
    pub(crate) fn admit(&self, i: usize) -> bool {
        crate::race::yield_point("shard-admit");
        // pmm-audit: allow(hot-index) — i ranges over 0..self.n and states has n entries by construction
        let mut st = lock_state(&self.states[i]);
        match st.health {
            ShardHealth::Healthy => true,
            ShardHealth::GivenUp => false,
            ShardHealth::Quarantined => {
                if st.rebuilds < self.cfg.max_rebuilds {
                    st.rebuilds += 1;
                    st.health = ShardHealth::Healthy;
                    ctr::SERVE_SHARD_REBUILDS.add(1);
                    true
                } else {
                    st.health = ShardHealth::GivenUp;
                    ctr::SERVE_SHARD_GIVEUPS.add(1);
                    false
                }
            }
        }
    }

    pub(crate) fn note_panic(&self, i: usize) {
        crate::race::yield_point("shard-note-panic");
        // pmm-audit: allow(hot-index) — i ranges over 0..self.n and states has n entries by construction
        let mut st = lock_state(&self.states[i]);
        st.health = ShardHealth::Quarantined;
        ctr::SERVE_SHARD_PANICS.add(1);
        ctr::SERVE_SHARD_QUARANTINES.add(1);
    }

    /// Scatter-gather top-k over one exhaustive score row. Healthy
    /// shards select their local top-k in parallel under panic
    /// isolation; the gather merges whatever served and tags the
    /// answer with its shard coverage. With every shard healthy the
    /// result is bit-identical to the exhaustive sort.
    /// Per-shard trace events are anchored at `anchor` (the enclosing
    /// rank stage's clock): shards overlap in time, so giving the
    /// siblings one shared start keeps causal chains monotonic.
    pub(crate) fn rank(
        &self,
        scores: &[f32],
        prefix: &[usize],
        k: usize,
        exclude_seen: bool,
        anchor: &StageClock,
        tracer: &mut Tracer,
    ) -> (Vec<Recommendation>, PartialShards) {
        let ranges = shard_ranges(scores.len(), self.n);
        // Admission and fault-plan consumption happen sequentially in
        // shard order, so `shard_panic@N` occurrences map to shards
        // deterministically at every thread count.
        let tasks: Vec<(usize, std::ops::Range<usize>, bool)> = ranges
            .into_iter()
            .enumerate()
            .filter(|(i, _)| self.admit(*i))
            .map(|(i, r)| (i, r, pmm_fault::trip_shard_panic()))
            .collect();
        let total = self.n;

        // Scatter: rank admitted shards in parallel. Panics are caught
        // inside the closure — map_chunks itself must never see one.
        // One attempt is (shard index, elapsed ns, local top-k or panic).
        type ShardAttempt = (usize, u64, Result<Vec<Recommendation>, ()>);
        let results: Vec<Vec<ShardAttempt>> =
            pmm_par::map_chunks(&tasks, 1, |_, block| {
                block
                    .iter()
                    .map(|(i, range, injected)| {
                        let t0 = Instant::now();
                        let got = catch_unwind(AssertUnwindSafe(|| {
                            if *injected {
                                // pmm-audit: allow(hot-panic) — deterministic fault-injection point; the quarantine ladder is the feature under test
                                panic!("injected shard panic (shard_panic@N)");
                            }
                            shard_top_k(scores, range.clone(), prefix, k, exclude_seen)
                        }));
                        (*i, t0.elapsed().as_nanos() as u64, got.map_err(|_| ()))
                    })
                    .collect()
            });

        // Gather: per-shard parts arrive in ascending shard order
        // (map_chunks preserves block order), which the merge's
        // tie-breaking relies on.
        let mut parts = Vec::with_capacity(tasks.len());
        let mut served = 0usize;
        for (i, ns, got) in results.into_iter().flatten() {
            let dur = std::time::Duration::from_nanos(ns);
            match got {
                Ok(part) => {
                    tracer.observe_at(Stage::Shard, anchor, dur, "ok", &format!("shard={i}"));
                    served += 1;
                    parts.push(part);
                }
                Err(()) => {
                    tracer.observe_at(Stage::Shard, anchor, dur, "panic", &format!("shard={i}"));
                    self.note_panic(i);
                }
            }
        }
        ctr::SERVE_SHARDS_SERVED.add(served as u64);
        ctr::SERVE_SHARDS_TOTAL.add(total as u64);
        let coverage = PartialShards { served, total };
        if coverage.is_partial() {
            ctr::SERVE_PARTIAL.add(1);
        }
        (merge_shard_top_k(parts, k), coverage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize, max_rebuilds: u32) -> ShardPool {
        ShardPool::new(ShardConfig { shards: Some(n), max_rebuilds })
    }

    fn scores() -> Vec<f32> {
        (0..40).map(|i| ((i * 13) % 17) as f32).collect()
    }

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

    #[test]
    fn healthy_pool_matches_the_exhaustive_sort_at_every_shard_count() {
        let s = scores();
        let want = exhaustive(&s, 10);
        for n in [1, 2, 4, 7] {
            let p = pool(n, 3);
            let mut tracer = Tracer::start();
            let (got, cov) = p.rank(&s, &[], 10, false, &tracer.begin(Stage::Rank), &mut tracer);
            assert_eq!(got, want, "shards={n}");
            assert_eq!(cov, PartialShards { served: n, total: n });
            assert!(!cov.is_partial());
        }
    }

    #[test]
    fn panicking_shard_is_quarantined_and_the_gather_stays_partial_not_panicking() {
        // Occurrence 1 = shard 1 of the first request (admissions are
        // consumed in shard order).
        pmm_fault::install(pmm_fault::FaultPlan::parse("shard_panic@1").unwrap());
        let p = pool(4, 1);
        let s = scores();
        let mut tracer = Tracer::start();
        let (got, cov) = p.rank(&s, &[], 10, false, &tracer.begin(Stage::Rank), &mut tracer);
        pmm_fault::clear();
        assert_eq!(cov, PartialShards { served: 3, total: 4 });
        assert!(cov.is_partial());
        assert!((cov.coverage() - 0.75).abs() < 1e-9);
        assert_eq!(p.health(), vec![
            ShardHealth::Healthy,
            ShardHealth::Quarantined,
            ShardHealth::Healthy,
            ShardHealth::Healthy,
        ]);
        // The gather is exactly the exhaustive sort minus shard 1's
        // id range.
        let ranges = shard_ranges(s.len(), 4);
        let missing = ranges.get(1).cloned().unwrap();
        let want: Vec<Recommendation> = exhaustive(&s, s.len())
            .into_iter()
            .filter(|r| !missing.contains(&r.item))
            .take(10)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rebuild_budget_heals_then_gives_up_until_revive() {
        // Shard 0 panics on its first attempt and again on its rebuild
        // probe (occurrence 4 = shard 0 of request 2: request 1
        // consumed occurrences 0-3).
        pmm_fault::install(pmm_fault::FaultPlan::parse("shard_panic@0,shard_panic@4").unwrap());
        let p = pool(4, 1);
        let s = scores();
        let mut tracer = Tracer::start();
        let (_, cov1) = p.rank(&s, &[], 5, false, &tracer.begin(Stage::Rank), &mut tracer);
        assert_eq!(cov1.served, 3, "first panic quarantines shard 0");
        let (_, cov2) = p.rank(&s, &[], 5, false, &tracer.begin(Stage::Rank), &mut tracer);
        assert_eq!(cov2.served, 3, "the rebuild probe panics again");
        assert_eq!(p.health().first(), Some(&ShardHealth::Quarantined));
        let (_, cov3) = p.rank(&s, &[], 5, false, &tracer.begin(Stage::Rank), &mut tracer);
        pmm_fault::clear();
        assert_eq!(cov3.served, 3, "budget exhausted: shard 0 is given up, not probed");
        assert_eq!(p.health().first(), Some(&ShardHealth::GivenUp));
        // A snapshot swap revives the shard with a fresh budget.
        p.revive();
        assert_eq!(p.health(), vec![ShardHealth::Healthy; 4]);
        let mut tracer = Tracer::start();
        let (got, cov) = p.rank(&s, &[], 10, false, &tracer.begin(Stage::Rank), &mut tracer);
        assert_eq!(cov.served, 4);
        assert_eq!(got, exhaustive(&s, 10));
    }

    #[test]
    fn prefix_exclusion_matches_the_exhaustive_filtered_sort() {
        let s = scores();
        let prefix = vec![3, 16, 21];
        let want: Vec<Recommendation> = exhaustive(&s, s.len())
            .into_iter()
            .filter(|r| !prefix.contains(&r.item))
            .take(8)
            .collect();
        for n in [2, 5] {
            let p = pool(n, 3);
            let mut tracer = Tracer::start();
            let (got, _) = p.rank(&s, &prefix, 8, true, &tracer.begin(Stage::Rank), &mut tracer);
            assert_eq!(got, want, "shards={n}");
        }
    }
}
