//! Lock-free log-scale latency histograms.
//!
//! A [`Histogram`] is 64 buckets of relaxed `AtomicU64`s whose lower
//! bounds grow by a factor of √2 from 1 ns; the top (unbounded) bucket
//! opens at ~1.9 s, which comfortably covers every serving deadline in
//! the stack. Recording is one binary search over a `const` bound table
//! plus three relaxed `fetch_add`s — no locks, no allocation — so the
//! record path is safe inside serving workers. Quantiles read a
//! [`HistSnapshot`] and are exact to within one bucket (≤ √2 relative
//! error), which is the usual contract for log-bucketed latency
//! telemetry.
//!
//! Stage histograms are `static`s registered in a global registry
//! (mirroring `pmm_obs::counter`), so exporters can enumerate them
//! without knowing the serving crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Number of buckets per histogram.
pub const BUCKETS: usize = 64;

/// Lower bound of each bucket in nanoseconds, strictly increasing.
/// Bucket 0 holds exactly 0 ns; bucket `i` holds
/// `[BOUNDS[i], BOUNDS[i+1])`; the last bucket is unbounded above.
/// Growth is ×√2 via the fixed-point multiplier `92_682 / 2^16`
/// (≈ 1.41422), with a `+1` floor so small bounds still advance.
pub static BOUNDS: [u64; BUCKETS] = bounds();

const fn bounds() -> [u64; BUCKETS] {
    let mut b = [0u64; BUCKETS];
    b[1] = 1;
    let mut i = 2;
    while i < BUCKETS {
        let grown = (b[i - 1] * 92_682) >> 16;
        b[i] = if grown > b[i - 1] { grown } else { b[i - 1] + 1 };
        i += 1;
    }
    b
}

/// The bucket index holding `ns`.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    // partition_point returns the count of bounds ≤ ns; BOUNDS[0] = 0
    // is always ≤ ns, so the result is ≥ 1 and the -1 cannot wrap.
    BOUNDS.partition_point(|&lo| lo <= ns) - 1
}

/// A named lock-free latency histogram.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one observation; no-op while collection is disabled.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        if !pmm_obs::enabled() {
            return;
        }
        let idx = bucket_of(ns);
        // bucket_of is bounded by BUCKETS - 1 by construction.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one observation from a `Duration`.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos() as u64);
    }

    /// A point-in-time copy of the histogram's state. Relaxed loads:
    /// concurrent recorders may straddle the snapshot by one event,
    /// which is within the histogram's error contract anyway.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistSnapshot {
            name: self.name,
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
    }
}

/// A frozen histogram: the unit quantiles, deltas, and exporters work
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub name: &'static str,
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum_ns: u64,
}

impl HistSnapshot {
    /// An empty snapshot (useful as a delta base).
    pub fn empty(name: &'static str) -> HistSnapshot {
        HistSnapshot { name, buckets: [0; BUCKETS], count: 0, sum_ns: 0 }
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper edge of the
    /// bucket holding the rank-`⌈q·count⌉` observation (bucket 0 holds
    /// exactly 0 ns and reports 0). Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return match i {
                    0 => 0,
                    _ => BOUNDS.get(i + 1).copied().unwrap_or(BOUNDS[BUCKETS - 1]),
                };
            }
        }
        BOUNDS[BUCKETS - 1]
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The window `self - base`, saturating per bucket so a registry
    /// reset between snapshots degrades to `self` instead of wrapping.
    pub fn delta_since(&self, base: &HistSnapshot) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(base.buckets[i]);
        }
        HistSnapshot {
            name: self.name,
            buckets,
            count: self.count.saturating_sub(base.count),
            sum_ns: self.sum_ns.saturating_sub(base.sum_ns),
        }
    }
}

// --- serving-stage histograms -----------------------------------------

/// Queue wait: submission to worker pickup.
pub static H_QUEUE_WAIT: Histogram = Histogram::new("stage_queue_wait_ns");
/// Catalogue encode (all modality components of the attempted rung).
pub static H_ENCODE: Histogram = Histogram::new("stage_encode_ns");
/// User-prefix encode against the stage-1 catalogue.
pub static H_USER_ENCODE: Histogram = Histogram::new("stage_user_encode_ns");
/// Catalogue scoring + top-k.
pub static H_RANK: Histogram = Histogram::new("stage_rank_ns");
/// End-to-end request latency, queue wait included, regardless of
/// outcome (served or deadline-missed; shed requests never start).
pub static H_TOTAL: Histogram = Histogram::new("request_total_ns");
/// Snapshot hot-swap drain: epoch flip until every live worker
/// adopted the new snapshot.
pub static H_SWAP_DRAIN: Histogram = Histogram::new("swap_drain_ns");
/// Durable item ingestion: WAL append (frame, CRC, fsync) per item.
pub static H_INGEST: Histogram = Histogram::new("stage_ingest_ns");

fn registry() -> &'static Mutex<Vec<&'static Histogram>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Histogram>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(vec![
            &H_QUEUE_WAIT,
            &H_ENCODE,
            &H_USER_ENCODE,
            &H_RANK,
            &H_TOTAL,
            &H_SWAP_DRAIN,
            &H_INGEST,
        ])
    })
}

/// Register an additional static histogram so exporters enumerate it.
/// The stage histograms above are pre-registered; re-registering a
/// name is a no-op.
pub fn register(h: &'static Histogram) {
    let mut reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if !reg.iter().any(|r| r.name == h.name) {
        reg.push(h);
    }
}

/// Snapshot every registered histogram, in registration order.
pub fn snapshot_all() -> Vec<HistSnapshot> {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|h| h.snapshot())
        .collect()
}

/// Zero every registered histogram.
pub fn reset_all() {
    for h in registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner).iter() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_global_lock as enable_lock;

    #[test]
    fn bounds_are_strictly_increasing_and_cover_seconds() {
        for w in BOUNDS.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {w:?}");
        }
        // ×√2 per bucket from 1 ns lands the top bucket near ~1.9 s —
        // past every serving deadline, with multi-second outliers
        // collected by the unbounded top bucket.
        assert!(BOUNDS[BUCKETS - 1] > 1_500_000_000, "top bound {}", BOUNDS[BUCKETS - 1]);
        // And the growth factor stays close to √2 once out of the +1 floor.
        let ratio = BOUNDS[40] as f64 / BOUNDS[39] as f64;
        assert!((ratio - std::f64::consts::SQRT_2).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn bucket_of_respects_bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        for (i, &bound) in BOUNDS.iter().enumerate().skip(1) {
            assert_eq!(bucket_of(bound), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of(bound - 1), i - 1, "just below bucket {i}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_exact_within_one_bucket() {
        let _g = enable_lock();
        pmm_obs::set_enabled(true);
        static H: Histogram = Histogram::new("test_quantiles");
        // 90 fast observations at 1 µs, 10 slow at 100 ms.
        for _ in 0..90 {
            H.observe_ns(1_000);
        }
        for _ in 0..10 {
            H.observe_ns(100_000_000);
        }
        let s = H.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.quantile_ns(0.50);
        let p95 = s.quantile_ns(0.95);
        // p50 lands in the 1 µs bucket: its upper edge is within √2.
        assert!((1_000..=1_500).contains(&p50), "p50 {p50}");
        assert!((100_000_000..=150_000_000).contains(&p95), "p95 {p95}");
        assert!(s.quantile_ns(1.0) >= 100_000_000);
        assert!((s.mean_ns() - (90.0 * 1_000.0 + 10.0 * 100_000_000.0) / 100.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = HistSnapshot::empty("e");
        assert_eq!(s.quantile_ns(0.99), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn delta_since_isolates_a_window() {
        let _g = enable_lock();
        pmm_obs::set_enabled(true);
        static H: Histogram = Histogram::new("test_delta");
        H.observe_ns(10);
        let base = H.snapshot();
        H.observe_ns(10);
        H.observe_ns(20);
        let win = H.snapshot().delta_since(&base);
        assert_eq!(win.count, 2);
        assert_eq!(win.sum_ns, 30);
        assert_eq!(win.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn disabled_collection_records_nothing() {
        let _g = enable_lock();
        static H: Histogram = Histogram::new("test_disabled");
        pmm_obs::set_enabled(false);
        H.observe_ns(123);
        assert_eq!(H.snapshot().count, 0);
        pmm_obs::set_enabled(true);
    }

    #[test]
    fn registry_enumerates_stage_histograms_once() {
        let names: Vec<&str> = snapshot_all().iter().map(|s| s.name).collect();
        for want in [
            "stage_queue_wait_ns",
            "stage_encode_ns",
            "stage_user_encode_ns",
            "stage_rank_ns",
            "request_total_ns",
            "swap_drain_ns",
            "stage_ingest_ns",
        ] {
            assert_eq!(names.iter().filter(|n| **n == want).count(), 1, "{want}");
        }
        // Re-registering a built-in is a no-op.
        register(&H_RANK);
        assert_eq!(snapshot_all().len(), names.len());
    }
}
