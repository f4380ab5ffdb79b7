//! Output checks. Each one compares the program's output with a
//! computation made here, apart from the program, or with a property
//! the method must have. They are pure functions so the tests below
//! can feed each a seeded defect and see it rejected.

use pmmrec::Recommendation;

/// Relative score gap under which two catalogue items count as tied:
/// the server scores in f32, the reference in f64, so neighbours
/// closer than this may legitimately swap places.
pub const TIE_EPS: f64 = 1e-5;

/// f64 dot products of one user vector against the first `n` rows of
/// a row-major `[_, d]` item matrix.
pub fn reference_scores(user: &[f32], items: &[f32], d: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            items[i * d..(i + 1) * d]
                .iter()
                .zip(user)
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum()
        })
        .collect()
}

/// The top `k` of the first `n` scores, skipping `seen`, ranked by
/// score (descending) then id (ascending).
pub fn reference_top_k(scores: &[f64], n: usize, k: usize, seen: &[usize]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).filter(|i| !seen.contains(i)).collect();
    ids.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    ids.truncate(k);
    ids
}

fn tied(a: f64, b: f64) -> bool {
    (a - b).abs() <= TIE_EPS * (1.0 + a.abs().max(b.abs()))
}

/// A served top-`k` list over a catalogue of `n` items: `k` distinct
/// unseen items with non-increasing scores, equal to the reference
/// top-`k` of `scores` except where neighbours are tied within
/// [`TIE_EPS`].
pub fn check_served(
    served: &[Recommendation],
    prefix: &[usize],
    k: usize,
    scores: &[f64],
    n: usize,
) -> Result<(), String> {
    let want = reference_top_k(scores, n, k, prefix);
    if served.len() != want.len() {
        return Err(format!(
            "served {} items, expected {}",
            served.len(),
            want.len()
        ));
    }
    for (j, r) in served.iter().enumerate() {
        if r.item >= n {
            return Err(format!("item {} is outside the {n}-item catalogue", r.item));
        }
        if prefix.contains(&r.item) {
            return Err(format!("item {} was already seen", r.item));
        }
        if served[..j].iter().any(|s| s.item == r.item) {
            return Err(format!("item {} served twice", r.item));
        }
        if j > 0 && served[j - 1].score < r.score {
            return Err(format!("scores rise at position {j}"));
        }
        if r.item != want[j] && !tied(scores[r.item], scores[want[j]]) {
            return Err(format!(
                "position {j}: served item {} (score {:.6}), reference item {} (score {:.6})",
                r.item, scores[r.item], want[j], scores[want[j]]
            ));
        }
    }
    Ok(())
}

/// The replayed WAL ledger must be the acknowledged one: every item
/// exactly once, in order, byte for byte.
pub fn check_ledger(acked: &[Vec<u8>], replayed: &[Vec<u8>]) -> Result<(), String> {
    if let Some(i) = acked.iter().zip(replayed).position(|(a, r)| a != r) {
        return Err(format!(
            "replayed item {i} differs from the acknowledged one"
        ));
    }
    if replayed.len() != acked.len() {
        return Err(format!(
            "replay returned {} items, {} were acknowledged",
            replayed.len(),
            acked.len()
        ));
    }
    Ok(())
}

/// HR@10 in percent from full score rows, by a rank count of our own:
/// a case hits when fewer than 10 items outscore its target, ties
/// counting half (the expected rank under random tie-breaking).
pub fn hr10(rows: &[Vec<f32>], targets: &[usize]) -> f32 {
    let hits = rows
        .iter()
        .zip(targets)
        .filter(|(row, &t)| {
            let (mut above, mut ties) = (0usize, 0usize);
            for (i, &s) in row.iter().enumerate() {
                if i != t && s > row[t] {
                    above += 1;
                } else if i != t && s == row[t] {
                    ties += 1;
                }
            }
            2 * above + ties < 20
        })
        .count();
    100.0 * hits as f32 / rows.len().max(1) as f32
}

/// What a pre-training run produced.
pub struct PretrainOutcome {
    /// Mean training loss per epoch, in order.
    pub losses: Vec<f32>,
    /// Held-out HR@10 by [`hr10`].
    pub hr10_own: f32,
    /// Held-out HR@10 as `pmm_eval::evaluate_cases` reports it.
    pub hr10_eval: f32,
    /// Held-out HR@10 of the same model before training.
    pub hr10_untrained: f32,
    /// Catalogue size (random ranking hits 10 of these).
    pub n_items: usize,
}

/// Every loss finite, the last epoch's below the first, the two HR@10
/// computations equal, and HR@10 above both random ranking and the
/// untrained model.
pub fn check_pretrain(o: &PretrainOutcome) -> Result<(), String> {
    if o.losses.is_empty() {
        return Err("no epoch ran".into());
    }
    if let Some(i) = o.losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("epoch {} loss is {}", i + 1, o.losses[i]));
    }
    let (first, last) = (o.losses[0], o.losses[o.losses.len() - 1]);
    if o.losses.len() > 1 && last >= first {
        return Err(format!(
            "loss did not fall: first epoch {first}, last {last}"
        ));
    }
    if o.hr10_own != o.hr10_eval {
        return Err(format!(
            "HR@10 {} by rank count, {} by evaluate_cases",
            o.hr10_own, o.hr10_eval
        ));
    }
    let random = 100.0 * 10.0 / o.n_items as f32;
    if o.hr10_own <= random {
        return Err(format!(
            "held-out HR@10 {} is not above random ranking {random}",
            o.hr10_own
        ));
    }
    if o.hr10_own <= o.hr10_untrained {
        return Err(format!(
            "held-out HR@10 {} is not above the untrained model's {}",
            o.hr10_own, o.hr10_untrained
        ));
    }
    Ok(())
}

/// The client-measured median and the server's own `request_total_ns`
/// median (reported as its bucket's upper edge) must fall within one
/// histogram bucket of each other.
pub fn check_same_bucket(client_ns: u64, server_edge_ns: u64) -> Result<(), String> {
    use pmm_trace::hist::bucket_of;
    let client = bucket_of(client_ns) as i64;
    // The reported edge is the exclusive upper bound of the bucket
    // holding the server's median.
    let server = bucket_of(server_edge_ns.saturating_sub(1)) as i64;
    if (client - server).abs() > 1 {
        return Err(format!(
            "client median {client_ns} ns (bucket {client}) vs server median ≤ {server_edge_ns} ns (bucket {server})"
        ));
    }
    Ok(())
}

/// The `matmul_flops` counter must have grown by exactly 2·m·k·n.
pub fn check_flops(counted: u64, m: usize, k: usize, n: usize) -> Result<(), String> {
    let want = 2 * (m * k * n) as u64;
    if counted != want {
        return Err(format!(
            "matmul_flops grew by {counted} for [{m}x{k}]x[{k}x{n}], expected {want}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(item: usize, score: f64) -> Recommendation {
        Recommendation {
            item,
            score: score as f32,
        }
    }

    /// Scores 0..n descending with id, so the top-k is 0, 1, 2, ...
    fn descending(n: usize) -> Vec<f64> {
        (0..n).map(|i| (n - i) as f64 * 0.25).collect()
    }

    fn served_from(scores: &[f64], ids: &[usize]) -> Vec<Recommendation> {
        ids.iter().map(|&i| rec(i, scores[i])).collect()
    }

    #[test]
    fn reference_scores_are_dot_products() {
        let items = [1.0f32, 0.0, 0.0, 2.0, 3.0, 4.0];
        assert_eq!(
            reference_scores(&[2.0, 0.5], &items, 2, 3),
            vec![2.0, 1.0, 8.0]
        );
    }

    #[test]
    fn reference_breaks_ties_by_id() {
        assert_eq!(
            reference_top_k(&[1.0, 2.0, 2.0, 0.5], 4, 3, &[]),
            vec![1, 2, 0]
        );
        assert_eq!(
            reference_top_k(&[1.0, 2.0, 2.0, 0.5], 3, 3, &[1]),
            vec![2, 0]
        );
    }

    #[test]
    fn a_correct_list_passes() {
        let s = descending(20);
        let prefix = [1, 4];
        let served = served_from(&s, &[0, 2, 3, 5, 6]);
        assert_eq!(check_served(&served, &prefix, 5, &s, 20), Ok(()));
    }

    #[test]
    fn a_swapped_in_lower_scored_item_is_rejected() {
        let s = descending(20);
        let served = served_from(&s, &[0, 1, 2, 3, 9]);
        assert!(check_served(&served, &[], 5, &s, 20).is_err());
    }

    #[test]
    fn a_seen_item_left_in_is_rejected() {
        let s = descending(20);
        let served = served_from(&s, &[0, 1, 2, 3, 4]);
        let err = check_served(&served, &[2], 5, &s, 20).unwrap_err();
        assert!(err.contains("already seen"), "{err}");
    }

    #[test]
    fn duplicates_rising_scores_and_short_lists_are_rejected() {
        let s = descending(20);
        assert!(check_served(&served_from(&s, &[0, 0, 1, 2, 3]), &[], 5, &s, 20).is_err());
        assert!(check_served(&served_from(&s, &[1, 0, 2, 3, 4]), &[], 5, &s, 20).is_err());
        assert!(check_served(&served_from(&s, &[0, 1, 2, 3]), &[], 5, &s, 20).is_err());
        // An item past the catalogue the request saw.
        assert!(check_served(&served_from(&s, &[0, 1, 2]), &[], 3, &s, 2).is_err());
    }

    #[test]
    fn near_tied_neighbours_may_swap() {
        let mut s = descending(20);
        s[3] = s[2] * (1.0 - 1e-7);
        let served = served_from(&s, &[0, 1, 3, 2, 4]);
        // Scores as the server would send them: non-increasing in f32.
        let served: Vec<Recommendation> = served
            .iter()
            .map(|r| Recommendation {
                score: s[2] as f32,
                ..*r
            })
            .collect();
        assert_eq!(check_served(&served, &[], 5, &s, 20), Ok(()));
    }

    #[test]
    fn a_ledger_missing_its_last_item_is_rejected() {
        let acked = vec![vec![1u8], vec![2], vec![3]];
        assert_eq!(check_ledger(&acked, &acked), Ok(()));
        assert!(check_ledger(&acked, &acked[..2]).is_err());
        let dup = vec![vec![1u8], vec![2], vec![2], vec![3]];
        assert!(check_ledger(&acked, &dup).is_err());
        let swapped = vec![vec![1u8], vec![3], vec![2]];
        assert!(check_ledger(&acked, &swapped).is_err());
    }

    #[test]
    fn hr10_counts_ranks_like_the_paper_protocol() {
        // Target 0 outscored by exactly 9 items: a hit; by 10: a miss.
        let mut row: Vec<f32> = (0..30).map(|i| i as f32).collect();
        row[0] = 20.5;
        assert_eq!(hr10(&[row.clone()], &[0]), 100.0);
        row[0] = 19.5;
        assert_eq!(hr10(&[row], &[0]), 0.0);
        // 9 above and two ties: rank 10, a miss.
        let mut tie: Vec<f32> = vec![0.0; 30];
        for v in tie.iter_mut().take(10).skip(1) {
            *v = 5.0;
        }
        tie[10] = 1.0;
        tie[11] = 1.0;
        tie[0] = 1.0;
        assert_eq!(hr10(&[tie], &[0]), 0.0);
    }

    fn trained(hr: f32) -> PretrainOutcome {
        PretrainOutcome {
            losses: vec![9.0, 8.0, 7.5],
            hr10_own: hr,
            hr10_eval: hr,
            hr10_untrained: 1.0,
            n_items: 500,
        }
    }

    #[test]
    fn a_model_at_random_level_is_rejected() {
        assert_eq!(check_pretrain(&trained(6.0)), Ok(()));
        assert!(check_pretrain(&trained(2.0)).is_err());
        assert!(check_pretrain(&trained(1.0)).is_err());
    }

    #[test]
    fn a_model_no_better_than_its_initialisation_is_rejected() {
        let mut o = trained(6.0);
        o.hr10_untrained = 6.0;
        assert!(check_pretrain(&o).is_err());
        o.hr10_untrained = 5.9;
        assert_eq!(check_pretrain(&o), Ok(()));
    }

    #[test]
    fn rising_or_non_finite_losses_and_hr_disagreement_are_rejected() {
        let mut o = trained(6.0);
        o.losses = vec![8.0, 8.5];
        assert!(check_pretrain(&o).is_err());
        o.losses = vec![8.0, f32::NAN, 7.0];
        assert!(check_pretrain(&o).is_err());
        let mut o = trained(6.0);
        o.hr10_eval = 6.2;
        assert!(check_pretrain(&o).is_err());
    }

    #[test]
    fn histogram_medians_agree_within_a_bucket() {
        use pmm_trace::hist::BOUNDS;
        let i = 30;
        assert_eq!(check_same_bucket(BOUNDS[i] + 1, BOUNDS[i + 1]), Ok(()));
        assert_eq!(check_same_bucket(BOUNDS[i + 1] + 1, BOUNDS[i + 1]), Ok(()));
        assert!(check_same_bucket(BOUNDS[i + 3], BOUNDS[i + 1]).is_err());
    }

    #[test]
    fn flop_count_must_match_shapes() {
        assert_eq!(check_flops(2 * 3 * 4 * 5, 3, 4, 5), Ok(()));
        assert!(check_flops(2 * 3 * 4 * 5 - 8, 3, 4, 5).is_err());
    }
}
