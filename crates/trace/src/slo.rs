//! SLO evaluation over a metrics window.
//!
//! An [`SloPolicy`] sets thresholds on the serving stack's six
//! user-visible degradation signals: deadline-miss rate, shed rate,
//! accumulated breaker-open time, the fraction of responses served
//! from the model-free floor tiers (cache/popularity), the worker
//! restart rate (crash-looping), and accumulated snapshot hot-swap
//! drain time. [`evaluate`]
//! turns one metrics window into an [`SloReport`] of per-check burn
//! rates (observed / threshold; > 1 is a breach), logging each breach
//! as a warning and an `"ev":"slo"` sink event so CI and dashboards
//! see the same evidence. Callers gate CI by exiting non-zero when
//! [`SloReport::ok`] is false.

use crate::metrics::MetricsSnapshot;
use pmm_obs::obs_warn;

/// Thresholds the serving window must stay under.
#[derive(Debug, Clone, Copy)]
pub struct SloPolicy {
    /// Deadline misses per accepted request.
    pub max_deadline_miss_rate: f64,
    /// Shed submissions per submitted request.
    pub max_shed_rate: f64,
    /// Total breaker-open nanoseconds accumulated over the window
    /// (accounted when a breaker closes).
    pub max_breaker_open_ns: u64,
    /// Fraction of served responses from the model-free floor tiers
    /// (cached top-k + popularity).
    pub max_floor_frac: f64,
    /// Worker restarts per accepted request — crash-looping burns this
    /// budget even when every individual request still resolves.
    pub max_restart_rate: f64,
    /// Total nanoseconds snapshot hot-swaps spent draining over the
    /// window (epoch flip until every live worker adopted the new
    /// snapshot).
    pub max_swap_drain_ns: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            max_deadline_miss_rate: 0.10,
            max_shed_rate: 0.25,
            max_breaker_open_ns: 5_000_000_000,
            max_floor_frac: 0.50,
            max_restart_rate: 0.20,
            max_swap_drain_ns: 5_000_000_000,
        }
    }
}

/// One evaluated SLO dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloCheck {
    pub name: &'static str,
    /// Observed value over the window.
    pub value: f64,
    /// The policy threshold.
    pub threshold: f64,
}

impl SloCheck {
    /// Observed / threshold; > 1 means the budget is burning faster
    /// than the policy allows. 0 when the threshold is 0 and nothing
    /// was observed; infinite when something was.
    pub fn burn_rate(&self) -> f64 {
        if self.threshold > 0.0 {
            self.value / self.threshold
        } else if self.value > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    pub fn breached(&self) -> bool {
        self.value > self.threshold
    }
}

/// Every check of one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    pub checks: Vec<SloCheck>,
}

impl SloReport {
    /// Whether every check held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| !c.breached())
    }

    /// The breached checks, if any.
    pub fn breaches(&self) -> Vec<&SloCheck> {
        self.checks.iter().filter(|c| c.breached()).collect()
    }
}

/// Evaluate `window` against `policy`. Rates divide by
/// `max(denominator, 1)` so an empty window evaluates clean instead of
/// NaN. Breaches are logged (`obs_warn`) and emitted as `"ev":"slo"`
/// sink events with their burn rates.
pub fn evaluate(window: &MetricsSnapshot, policy: &SloPolicy) -> SloReport {
    let requests = window.counter("serve_requests");
    let shed = window.counter("serve_shed");
    let accepted = requests.saturating_sub(shed);
    let misses = window.counter("serve_deadline_misses");
    let served: u64 = [
        "serve_tier_full",
        "serve_tier_single",
        "serve_tier_cached",
        "serve_tier_pop",
    ]
    .iter()
    .map(|n| window.counter(n))
    .sum();
    let floor = window.counter("serve_tier_cached") + window.counter("serve_tier_pop");

    let rate = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let checks = vec![
        SloCheck {
            name: "deadline_miss_rate",
            value: rate(misses, accepted),
            threshold: policy.max_deadline_miss_rate,
        },
        SloCheck {
            name: "shed_rate",
            value: rate(shed, requests),
            threshold: policy.max_shed_rate,
        },
        SloCheck {
            name: "breaker_open_ns",
            value: window.counter("serve_breaker_open_ns") as f64,
            threshold: policy.max_breaker_open_ns as f64,
        },
        SloCheck {
            name: "floor_frac",
            value: rate(floor, served),
            threshold: policy.max_floor_frac,
        },
        SloCheck {
            name: "restart_rate",
            value: rate(window.counter("serve_worker_restarts"), accepted),
            threshold: policy.max_restart_rate,
        },
        SloCheck {
            name: "swap_drain_ns",
            value: window.counter("serve_swap_drain_ns") as f64,
            threshold: policy.max_swap_drain_ns as f64,
        },
    ];
    let report = SloReport { checks };
    for c in report.breaches() {
        obs_warn!(
            "slo",
            "SLO breach: {} = {:.4} exceeds {:.4} (burn rate {:.2}x)",
            c.name,
            c.value,
            c.threshold,
            c.burn_rate()
        );
        pmm_obs::sink::emit_obj(
            pmm_obs::json::JsonObj::new()
                .str("ev", "slo")
                .str("check", c.name)
                .f64("value", c.value)
                .f64("threshold", c.threshold)
                .f64("burn_rate", c.burn_rate())
                .bool("breached", true),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;

    fn window(counters: Vec<(&'static str, u64)>) -> MetricsSnapshot {
        MetricsSnapshot { counters, hists: Vec::new(), worker_restarts: Vec::new() }
    }

    #[test]
    fn clean_window_passes_every_check() {
        let w = window(vec![
            ("serve_requests", 20),
            ("serve_shed", 0),
            ("serve_deadline_misses", 0),
            ("serve_tier_full", 20),
        ]);
        let report = evaluate(&w, &SloPolicy::default());
        assert!(report.ok(), "{report:?}");
        assert!(report.breaches().is_empty());
    }

    #[test]
    fn empty_window_is_clean_not_nan() {
        let report = evaluate(&window(Vec::new()), &SloPolicy::default());
        assert!(report.ok());
        for c in &report.checks {
            assert!(c.value.is_finite());
        }
    }

    #[test]
    fn excess_deadline_misses_breach_with_burn_rate() {
        // 18 accepted, 5 missed: 27.8% against a 10% budget.
        let w = window(vec![
            ("serve_requests", 18),
            ("serve_shed", 0),
            ("serve_deadline_misses", 5),
            ("serve_tier_full", 13),
        ]);
        let report = evaluate(&w, &SloPolicy::default());
        assert!(!report.ok());
        let breaches = report.breaches();
        assert_eq!(breaches.len(), 1);
        let miss = breaches.first().copied().expect("one breach");
        assert_eq!(miss.name, "deadline_miss_rate");
        assert!((miss.burn_rate() - (5.0 / 18.0) / 0.10).abs() < 1e-9);
    }

    #[test]
    fn floor_fraction_and_shed_rate_breach_independently() {
        let w = window(vec![
            ("serve_requests", 40),
            ("serve_shed", 20),
            ("serve_tier_full", 2),
            ("serve_tier_cached", 9),
            ("serve_tier_pop", 9),
        ]);
        let report = evaluate(&w, &SloPolicy::default());
        let names: Vec<&str> = report.breaches().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["shed_rate", "floor_frac"]);
    }

    #[test]
    fn crash_looping_breaches_restart_rate() {
        // 20 accepted, 6 restarts: 30% against a 20% budget — every
        // request resolved, but the fleet is visibly churning.
        let w = window(vec![
            ("serve_requests", 20),
            ("serve_shed", 0),
            ("serve_tier_full", 20),
            ("serve_worker_restarts", 6),
        ]);
        let report = evaluate(&w, &SloPolicy::default());
        let names: Vec<&str> = report.breaches().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["restart_rate"]);
    }

    #[test]
    fn slow_swap_drain_breaches_nanosecond_budget() {
        let w = window(vec![
            ("serve_requests", 4),
            ("serve_tier_full", 4),
            ("serve_swaps", 1),
            ("serve_swap_drain_ns", 6_000_000_000),
        ]);
        let report = evaluate(&w, &SloPolicy::default());
        let names: Vec<&str> = report.breaches().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["swap_drain_ns"]);
    }

    #[test]
    fn breaker_open_time_checks_against_nanosecond_budget() {
        let w = window(vec![("serve_requests", 1), ("serve_breaker_open_ns", 6_000_000_000)]);
        let report = evaluate(&w, &SloPolicy::default());
        let names: Vec<&str> = report.breaches().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["breaker_open_ns"]);
        assert_eq!(SloCheck { name: "x", value: 1.0, threshold: 0.0 }.burn_rate(), f64::INFINITY);
    }
}
