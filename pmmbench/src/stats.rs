//! Sample reduction: quantiles, the fastest-tenth rule every
//! end-to-end metric is reduced with, and the result line.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// How many of `n` samples the fastest tenth keeps: a tenth, at least
/// two (or all there are).
fn keep(n: usize) -> usize {
    ((n as f64 * KEEP).ceil() as usize).max(2).min(n)
}

/// The share of samples the fastest tenth keeps.
pub const KEEP: f64 = 0.1;

/// Mean of the fastest (smallest) tenth of unsorted samples; `NaN`
/// when empty.
pub fn fast_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = keep(v.len());
    v[..n].iter().sum::<f64>() / n as f64
}

/// The samples of a workload's runs.
///
/// A workload repeats whole rounds of the same parts (`per_round[k]`
/// parts of kind `k` per round). The host alternates between stretches
/// in which the same single-threaded code runs at full speed and
/// stretches, from milliseconds to tens of seconds long, in which it runs
/// up to ~45% slower with on-CPU time equal to wall time. A run's mean
/// therefore measures how much contention it met.
///
/// Throughput: each part kind's time is the mean of its fastest tenth of
/// samples, and a round's time the sum of its parts' times. A part is
/// long enough (a training step, 250 requests, a fold) that a cost
/// hitting one operation in a few hundred is in every sample.
///
/// Latency: each round's percentiles are taken over every operation of
/// that round, failed ones included, and a run's figure is the mean of
/// the fastest tenth of those per-round percentiles. A cost that hits
/// more than one operation in a hundred raises the 99th percentile of
/// every round, so it shows.
pub struct Recorder {
    per_round: Vec<usize>,
    /// `[traced as usize][kind]`: part durations in seconds.
    parts: [Vec<Vec<f64>>; 2],
    /// `[traced as usize]`: every finished round's operation latencies
    /// in milliseconds.
    rounds: [Vec<Vec<f64>>; 2],
    /// Latencies of the round under way.
    current: Vec<f64>,
}

/// End-to-end figures of a set of rounds.
pub struct Figures {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Rounds the latency percentiles were taken over.
    pub rounds: usize,
}

impl Recorder {
    pub fn new(per_round: &[usize]) -> Recorder {
        let kinds = || vec![Vec::new(); per_round.len()];
        Recorder {
            per_round: per_round.to_vec(),
            parts: [kinds(), kinds()],
            rounds: [Vec::new(), Vec::new()],
            current: Vec::new(),
        }
    }

    /// One timed part of kind `kind` with the latencies of the
    /// operations it completed.
    pub fn add(&mut self, traced: bool, kind: usize, secs: f64, lat_ms: &[f64]) {
        self.parts[traced as usize][kind].push(secs);
        self.current.extend_from_slice(lat_ms);
    }

    /// Closes the round under way.
    pub fn end_round(&mut self, traced: bool) {
        let lat = std::mem::take(&mut self.current);
        self.rounds[traced as usize].push(lat);
    }

    /// Figures over the untraced (`false`) or traced (`true`) rounds,
    /// each of which completed `ops_per_round` operations.
    pub fn figures(&self, traced: bool, ops_per_round: f64) -> Figures {
        let mut round_secs = 0.0;
        for (parts, &count) in self.parts[traced as usize].iter().zip(&self.per_round) {
            if count > 0 {
                round_secs += count as f64 * fast_mean(parts);
            }
        }
        let rounds = &self.rounds[traced as usize];
        let per_round = |q: f64| -> Vec<f64> {
            rounds
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| quantile(r, q))
                .collect()
        };
        Figures {
            ops_per_s: ops_per_round / round_secs,
            p50_ms: fast_mean(&per_round(0.5)),
            p99_ms: fast_mean(&per_round(0.99)),
            rounds: rounds.len(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: one JSON object. Non-finite values become
    /// `null` so the line always parses.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn slow_parts_do_not_move_the_throughput() {
        // Two part kinds: 3 steps per round and one validation.
        let mut r = Recorder::new(&[3, 1]);
        for _ in 0..20 {
            r.add(false, 0, 1.0, &[1000.0]);
            r.add(false, 1, 0.5, &[]);
            r.end_round(false);
        }
        let steady = r.figures(false, 30.0);
        assert_eq!(steady.ops_per_s, 30.0 / 3.5);
        for _ in 0..60 {
            r.add(false, 0, 1.7, &[1700.0]);
            r.add(false, 1, 0.9, &[]);
            r.end_round(false);
        }
        let noisy = r.figures(false, 30.0);
        assert_eq!(noisy.ops_per_s, steady.ops_per_s);
        assert_eq!(noisy.p50_ms, 1000.0);
        assert_eq!(noisy.rounds, 80);
        assert!(r.figures(true, 30.0).ops_per_s.is_nan());
    }

    #[test]
    fn a_stall_every_eighty_operations_shows_in_the_tail() {
        // 1,000 one-millisecond requests per round; in the second
        // recorder every 80th takes 20 ms. Every 250-request part then
        // holds three stalls, and every round twelve.
        let run = |stall_every: usize| {
            let mut r = Recorder::new(&[4]);
            for _ in 0..30 {
                for part in 0..4 {
                    let lat: Vec<f64> = (0..250)
                        .map(|i| {
                            let op = part * 250 + i + 1;
                            if op % stall_every == 0 {
                                20.0
                            } else {
                                1.0
                            }
                        })
                        .collect();
                    r.add(false, 0, lat.iter().sum::<f64>() / 1e3, &lat);
                }
                r.end_round(false);
            }
            r.figures(false, 1000.0)
        };
        let (clean, stalled) = (run(usize::MAX), run(80));
        assert_eq!(clean.p99_ms, 1.0);
        assert!(stalled.p99_ms > 10.0, "p99 {}", stalled.p99_ms);
        assert!(stalled.ops_per_s < 0.85 * clean.ops_per_s);
    }

    #[test]
    fn fast_mean_keeps_a_tenth_but_at_least_two() {
        let many: Vec<f64> = (0..25).map(|i| i as f64).collect();
        assert_eq!(fast_mean(&many), 1.0);
        assert_eq!(fast_mean(&[5.0, 1.0, 3.0, 9.0]), 2.0);
        assert_eq!(fast_mean(&[3.0]), 3.0);
        assert!(fast_mean(&[]).is_nan());
    }

    #[test]
    fn report_is_one_json_object() {
        let mut r = Report::default();
        r.put("latency_ms", 1.25, "ms");
        r.put("gone", f64::NAN, "ms");
        assert_eq!(
            r.json(true, 3, 1),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"gone\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
