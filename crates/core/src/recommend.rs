//! Inference conveniences: top-k recommendation and embedding export.
//!
//! These are the APIs a downstream service would call after training or
//! transferring a model; they reuse the cached catalogue encoding.

use crate::config::{Modality, Precision};
use crate::model::PmmRec;
use pmm_data::batch::Batch;
use pmm_tensor::{QTensor, Tensor};
use std::fmt;

/// One recommendation: item id and its (unnormalised) score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Catalogue item id.
    pub item: usize,
    /// Dot-product score (higher = better).
    pub score: f32,
}

/// Why a serving call could not produce recommendations. Serving must
/// never panic on bad user input, so the request-level failure modes
/// are typed and a runtime can map them to a degraded answer or a
/// client error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecommendError {
    /// The interaction prefix was empty: there is no user signal to
    /// encode, so no personalised ranking exists.
    EmptyPrefix,
    /// The requested modality path has no encoder in this model (e.g.
    /// a text-only model asked to score vision-only).
    UnsupportedModality(Modality),
}

impl fmt::Display for RecommendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecommendError::EmptyPrefix => write!(f, "empty interaction prefix"),
            RecommendError::UnsupportedModality(m) => {
                write!(f, "model has no encoder for the {m:?} path")
            }
        }
    }
}

impl std::error::Error for RecommendError {}

impl PmmRec {
    /// The `[n_items, d]` item representations (`e^cls` per item) under
    /// the current weights. Useful for downstream retrieval indexes or
    /// visualisation; recomputed lazily after training.
    pub fn item_representations(&self) -> Tensor {
        self.catalog_for_export()
    }

    /// Encodes interaction prefixes into `[n, d]` user representations
    /// (the final hidden state of the user encoder).
    #[track_caller]
    pub fn encode_prefixes(&self, prefixes: &[&[usize]]) -> Tensor {
        assert!(!prefixes.is_empty(), "encode_prefixes: no prefixes");
        assert!(
            prefixes.iter().all(|p| !p.is_empty()),
            "encode_prefixes: empty prefix"
        );
        let max_len = self.config().max_len;
        let clipped: Vec<&[usize]> = prefixes
            .iter()
            // pmm-audit: allow(hot-index) — start index is len.saturating_sub(..), which is ≤ len by construction
            .map(|p| &p[p.len().saturating_sub(max_len)..])
            .collect();
        let batch = Batch::from_sequences(&clipped, max_len);
        self.user_hidden_last(&batch)
    }

    /// Ranks the whole catalogue for a user prefix and returns the top
    /// `k` items. `exclude_seen` removes items already in the prefix
    /// (the usual deployment behaviour).
    ///
    /// This is the one-call composition of the staged serving API
    /// ([`PmmRec::serve_catalog`] → [`PmmRec::serve_user_vector`] →
    /// [`PmmRec::serve_rank`]) over the model's native modality, so a
    /// serving runtime that runs the stages itself — to check deadlines
    /// between them — produces bit-identical results.
    pub fn recommend_top_k(
        &self,
        prefix: &[usize],
        k: usize,
        exclude_seen: bool,
    ) -> Result<Vec<Recommendation>, RecommendError> {
        self.recommend_top_k_with(Precision::F32, prefix, k, exclude_seen)
    }

    /// [`PmmRec::recommend_top_k`] with an explicit ranking precision:
    /// `F32` is the exact path, `Int8` quantizes the catalogue (cached)
    /// and the user vector per row and scores with integer dot
    /// products. User encoding always runs f32 — only the final
    /// catalogue-sized matmul changes precision.
    pub fn recommend_top_k_with(
        &self,
        precision: Precision,
        prefix: &[usize],
        k: usize,
        exclude_seen: bool,
    ) -> Result<Vec<Recommendation>, RecommendError> {
        let modality = self.config().modality;
        let catalog = self.serve_catalog(modality)?;
        let user = self.serve_user_vector(&catalog, prefix)?;
        match precision {
            Precision::F32 => Ok(self.serve_rank(&catalog, &user, prefix, k, exclude_seen)),
            Precision::Int8 => {
                let qcat = self.serve_catalog_q(modality)?;
                Ok(self.serve_rank_q(&qcat, &user, prefix, k, exclude_seen))
            }
        }
    }

    // ------------------------------------------------------------------
    // Staged serving API: the three pipeline stages a serving runtime
    // drives individually (encode -> user-encode -> rank), with
    // cancellation points between them.
    // ------------------------------------------------------------------

    /// Stage 1 — the `[n_items, d]` catalogue under the given modality
    /// path (cached per modality until the next weight change).
    pub fn serve_catalog(&self, modality: Modality) -> Result<Tensor, RecommendError> {
        let _sp = pmm_obs::span("catalog_encode");
        if !self.supports_modality(modality) {
            return Err(RecommendError::UnsupportedModality(modality));
        }
        Ok(self.catalog_reps_via(modality))
    }

    /// Stage 2 — encodes one interaction prefix into a `[1, d]` user
    /// vector against the stage-1 catalogue.
    pub fn serve_user_vector(
        &self,
        catalog: &Tensor,
        prefix: &[usize],
    ) -> Result<Tensor, RecommendError> {
        let _sp = pmm_obs::span("user_vector");
        if prefix.is_empty() {
            return Err(RecommendError::EmptyPrefix);
        }
        let max_len = self.config().max_len;
        // pmm-audit: allow(hot-index) — start index is len.saturating_sub(..), which is ≤ len by construction
        let clipped = &prefix[prefix.len().saturating_sub(max_len)..];
        let batch = Batch::from_sequences(&[clipped], max_len);
        Ok(self.user_hidden_last_with(catalog, &batch))
    }

    /// Stage 1 (int8 variant) — the catalogue of stage 1 quantized to
    /// per-row affine int8, cached per modality next to the f32 rows
    /// and invalidated with them on every weight change.
    pub fn serve_catalog_q(&self, modality: Modality) -> Result<QTensor, RecommendError> {
        let _sp = pmm_obs::span("catalog_quantize");
        if !self.supports_modality(modality) {
            return Err(RecommendError::UnsupportedModality(modality));
        }
        Ok(self.quantized_catalog_via(modality))
    }

    /// Stage 3 (int8 variant) — quantizes the f32 user vector per row
    /// and scores the quantized catalogue with dequant-free integer
    /// dot products, then runs the same chunked top-k as
    /// [`PmmRec::serve_rank`]. Scores approximate the f32 path within
    /// the quantization step (pinned by `quantized_rank` tests);
    /// results are bit-identical at every worker count.
    pub fn serve_rank_q(
        &self,
        qcatalog: &QTensor,
        user: &Tensor,
        prefix: &[usize],
        k: usize,
        exclude_seen: bool,
    ) -> Vec<Recommendation> {
        let _sp = pmm_obs::span("rank_topk_q");
        let quser = QTensor::quantize_rows(user);
        let scores = quser.matmul_nt(qcatalog);
        top_k_chunked(scores.data(), k, |item| !exclude_seen || !prefix.contains(&item))
    }

    /// Stage 3 — scores the catalogue against the user vector and
    /// returns the top `k` (chunk-parallel, bit-identical at every
    /// worker count).
    pub fn serve_rank(
        &self,
        catalog: &Tensor,
        user: &Tensor,
        prefix: &[usize],
        k: usize,
        exclude_seen: bool,
    ) -> Vec<Recommendation> {
        let _sp = pmm_obs::span("rank_topk");
        let scores = user.matmul_t(catalog, false, true);
        top_k_chunked(scores.data(), k, |item| !exclude_seen || !prefix.contains(&item))
    }
}

/// Chunked top-k over a score row: each block keeps its own top-k
/// candidates, then one stable merge sort picks the global winners.
/// Both the per-block and the final sort are stable with items
/// enumerated in ascending id, so ties resolve to the lower id exactly
/// like a plain full-catalogue sort — the result is identical at every
/// worker count. An item a block drops has ≥ k better-or-equal items
/// in its own block, all of which also outrank it globally, so it can
/// never belong to the true top k.
fn top_k_chunked(scores: &[f32], k: usize, keep: impl Fn(usize) -> bool + Sync) -> Vec<Recommendation> {
    let mut ranked: Vec<Recommendation> = pmm_par::map_chunks(scores, 1 << 15, |off, block| {
        let mut local: Vec<Recommendation> = block
            .iter()
            .enumerate()
            .map(|(i, &score)| Recommendation { item: off + i, score })
            .filter(|r| keep(r.item))
            .collect();
        local.sort_by(|a, b| b.score.total_cmp(&a.score));
        local.truncate(k);
        local
    })
    .into_iter()
    .flatten()
    .collect();
    ranked.sort_by(|a, b| b.score.total_cmp(&a.score));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PmmRec, PmmRecConfig};
    use pmm_data::registry::{build_dataset, DatasetId, Scale};
    use pmm_data::split::LeaveOneOut;
    use pmm_data::world::{World, WorldConfig};
    use pmm_eval::SeqRecommender;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> (PmmRec, pmm_data::dataset::Dataset) {
        let world = World::new(WorldConfig::default());
        let ds = build_dataset(&world, DatasetId::HmClothes, Scale::Tiny, 42);
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = PmmRecConfig {
            d: 16,
            heads: 2,
            text_layers: 1,
            vision_layers: 1,
            user_layers: 1,
            dropout: 0.0,
            ..Default::default()
        };
        (PmmRec::new(cfg, &ds, &mut rng), ds)
    }

    #[test]
    fn item_representations_cover_catalogue() {
        let (m, ds) = model();
        let reps = m.item_representations();
        assert_eq!(reps.shape(), &[ds.items.len(), 16]);
        assert!(reps.all_finite());
    }

    #[test]
    fn encode_prefixes_shapes() {
        let (m, _) = model();
        let reps = m.encode_prefixes(&[&[0, 1, 2], &[3]]);
        assert_eq!(reps.shape(), &[2, 16]);
    }

    #[test]
    fn recommend_returns_sorted_unseen_items() {
        let (m, ds) = model();
        let prefix = [0usize, 1, 2];
        let recs = m.recommend_top_k(&prefix, 5, true).unwrap();
        assert_eq!(recs.len(), 5.min(ds.items.len() - prefix.len()));
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for r in &recs {
            assert!(!prefix.contains(&r.item));
        }
    }

    #[test]
    fn recommend_scores_match_trait_scoring() {
        let (m, _) = model();
        let prefix = [0usize, 1];
        let recs = m.recommend_top_k(&prefix, 3, false).unwrap();
        let case = LeaveOneOut { prefix: prefix.to_vec(), target: 0 };
        let scores = m.score_cases(&[case]).remove(0);
        for r in &recs {
            assert_eq!(r.score, scores[r.item]);
        }
    }

    #[test]
    fn top_k_chunked_matches_global_sort_at_every_thread_count() {
        // Synthetic score row spanning four 32768-score chunks with an
        // odd tail, and only 97 distinct score values so ties are
        // everywhere and the ascending-id tie-break is load-bearing.
        let n = (1usize << 17) + 3;
        let scores: Vec<f32> =
            (0..n).map(|i| ((i * 2_654_435_761) % 97) as f32 / 97.0).collect();
        let keep = |item: usize| !item.is_multiple_of(13);
        let mut naive: Vec<Recommendation> = scores
            .iter()
            .enumerate()
            .map(|(item, &score)| Recommendation { item, score })
            .filter(|r| keep(r.item))
            .collect();
        naive.sort_by(|a, b| b.score.total_cmp(&a.score));
        naive.truncate(25);
        for t in [1usize, 2, 4, 7] {
            pmm_par::set_threads(Some(t));
            let got = super::top_k_chunked(&scores, 25, keep);
            assert_eq!(got, naive, "threads={t}");
        }
        pmm_par::set_threads(None);
    }

    #[test]
    fn top_k_chunked_resolves_k_boundary_ties_like_the_exhaustive_sort() {
        // 4096 scores drawn from only 5 distinct values: the k-th slot
        // sits inside a tie group, so the ascending-id tie-break decides
        // which of the tied items make the cut.
        let n = 4096usize;
        let scores: Vec<f32> = (0..n).map(|i| ((i * 2_654_435_761) % 5) as f32).collect();
        let prefix = [3usize, 7, 11];
        for k in [1usize, 25, 100] {
            let mut naive: Vec<Recommendation> = scores
                .iter()
                .enumerate()
                .map(|(item, &score)| Recommendation { item, score })
                .filter(|r| !prefix.contains(&r.item))
                .collect();
            naive.sort_by(|a, b| b.score.total_cmp(&a.score));
            naive.truncate(k);
            assert_eq!(super::top_k_chunked(&scores, k, |i| !prefix.contains(&i)), naive, "k={k}");
        }
    }

    #[test]
    fn quantized_rank_scores_track_f32_within_quant_step() {
        let (m, ds) = model();
        let prefix = [0usize, 1, 2];
        let cat = m.serve_catalog(crate::Modality::Both).unwrap();
        let qcat = m.serve_catalog_q(crate::Modality::Both).unwrap();
        assert_eq!(qcat.shape(), [ds.items.len(), 16]);
        let user = m.serve_user_vector(&cat, &prefix).unwrap();
        let exact = m.serve_rank(&cat, &user, &prefix, ds.items.len(), false);
        let quant = m.serve_rank_q(&qcat, &user, &prefix, ds.items.len(), false);
        assert_eq!(exact.len(), quant.len());
        // Bound: k · (εu·max|cat| + εc·max|u| + εu·εc) with per-row εs.
        let umax = user.data().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let cmax = cat.data().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let quser = pmm_tensor::QTensor::quantize_rows(&user);
        let eu = quser.row_scale(0) * 0.5;
        let mut by_item_exact: Vec<f32> = vec![0.0; exact.len()];
        let mut by_item_quant: Vec<f32> = vec![0.0; quant.len()];
        for r in &exact {
            by_item_exact[r.item] = r.score;
        }
        for r in &quant {
            by_item_quant[r.item] = r.score;
        }
        for item in 0..exact.len() {
            let ec = qcat.row_scale(item) * 0.5;
            let bound = 16.0 * (eu * cmax + ec * umax + eu * ec) + 1e-4;
            let diff = (by_item_exact[item] - by_item_quant[item]).abs();
            assert!(diff <= bound, "item {item}: diff {diff} exceeds bound {bound}");
        }
    }

    #[test]
    fn recommend_top_k_with_int8_matches_staged_composition() {
        let (m, _) = model();
        let prefix = [0usize, 1, 2];
        let direct = m.recommend_top_k_with(crate::Precision::Int8, &prefix, 5, true).unwrap();
        let cat = m.serve_catalog(crate::Modality::Both).unwrap();
        let qcat = m.serve_catalog_q(crate::Modality::Both).unwrap();
        let user = m.serve_user_vector(&cat, &prefix).unwrap();
        let staged = m.serve_rank_q(&qcat, &user, &prefix, 5, true);
        assert_eq!(direct, staged, "int8 stage composition must be bit-identical");
        // F32 precision through the same knob is the exact path.
        assert_eq!(
            m.recommend_top_k_with(crate::Precision::F32, &prefix, 5, true).unwrap(),
            m.recommend_top_k(&prefix, 5, true).unwrap(),
        );
    }

    #[test]
    fn quantized_catalog_cache_is_invalidated_with_f32_cache() {
        use pmm_data::split::SplitDataset;
        use pmm_eval::{train_model, TrainConfig};
        let (mut m, ds) = model();
        let q_before = m.serve_catalog_q(crate::Modality::Both).unwrap();
        // Cache hit: same object contents.
        assert_eq!(q_before, m.serve_catalog_q(crate::Modality::Both).unwrap());
        let split = SplitDataset::new(ds);
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = TrainConfig { max_epochs: 1, ..Default::default() };
        let _ = train_model(&mut m, &split, &cfg, &mut rng);
        let q_after = m.serve_catalog_q(crate::Modality::Both).unwrap();
        assert_ne!(q_before, q_after, "training must invalidate the quantized catalogue");
    }

    #[test]
    fn quantized_rank_is_bit_identical_across_thread_counts() {
        let (m, ds) = model();
        let prefix = [0usize, 1];
        let qcat = m.serve_catalog_q(crate::Modality::Both).unwrap();
        let cat = m.serve_catalog(crate::Modality::Both).unwrap();
        let user = m.serve_user_vector(&cat, &prefix).unwrap();
        let reference = m.serve_rank_q(&qcat, &user, &prefix, ds.items.len(), false);
        for t in [1usize, 2, 4, 7] {
            pmm_par::set_threads(Some(t));
            let got = m.serve_rank_q(&qcat, &user, &prefix, ds.items.len(), false);
            pmm_par::set_threads(None);
            assert_eq!(got, reference, "threads={t}");
        }
    }

    #[test]
    fn empty_prefix_returns_typed_error() {
        let (m, _) = model();
        assert_eq!(m.recommend_top_k(&[], 5, false), Err(RecommendError::EmptyPrefix));
        let cat = m.serve_catalog(crate::Modality::Both).unwrap();
        assert_eq!(m.serve_user_vector(&cat, &[]), Err(RecommendError::EmptyPrefix));
    }

    #[test]
    fn staged_serving_matches_one_call_api() {
        let (m, _) = model();
        let prefix = [0usize, 1, 2];
        let direct = m.recommend_top_k(&prefix, 5, true).unwrap();
        let cat = m.serve_catalog(crate::Modality::Both).unwrap();
        let user = m.serve_user_vector(&cat, &prefix).unwrap();
        let staged = m.serve_rank(&cat, &user, &prefix, 5, true);
        assert_eq!(direct, staged, "stage composition must be bit-identical");
    }

    #[test]
    fn dual_model_serves_every_ladder_rung() {
        let (m, ds) = model();
        assert_eq!(
            m.modality_ladder(),
            vec![crate::Modality::Both, crate::Modality::TextOnly, crate::Modality::VisionOnly]
        );
        let prefix = [0usize, 1];
        let mut per_tier = Vec::new();
        for modality in m.modality_ladder() {
            let cat = m.serve_catalog(modality).unwrap();
            assert_eq!(cat.shape(), &[ds.items.len(), 16]);
            let user = m.serve_user_vector(&cat, &prefix).unwrap();
            let recs = m.serve_rank(&cat, &user, &prefix, 5, false);
            assert!(recs.iter().all(|r| r.score.is_finite()), "{modality:?}");
            per_tier.push(recs);
        }
        // The degraded paths rank against different representations, so
        // they must not be byte-copies of the full path.
        assert_ne!(per_tier[0], per_tier[1]);
        assert_ne!(per_tier[0], per_tier[2]);
    }

    #[test]
    fn unsupported_modality_is_a_typed_error() {
        let world = World::new(WorldConfig::default());
        let ds = build_dataset(&world, DatasetId::HmClothes, Scale::Tiny, 42);
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = PmmRecConfig {
            d: 16,
            heads: 2,
            text_layers: 1,
            vision_layers: 1,
            user_layers: 1,
            dropout: 0.0,
            modality: crate::Modality::TextOnly,
            ..Default::default()
        };
        let m = PmmRec::new(cfg, &ds, &mut rng);
        assert_eq!(m.modality_ladder(), vec![crate::Modality::TextOnly]);
        assert_eq!(
            m.serve_catalog(crate::Modality::VisionOnly),
            Err(RecommendError::UnsupportedModality(crate::Modality::VisionOnly))
        );
        assert_eq!(
            m.serve_catalog(crate::Modality::Both),
            Err(RecommendError::UnsupportedModality(crate::Modality::Both))
        );
    }

    /// Degrades a few catalogue items to one (or zero) modalities.
    fn degraded_dataset() -> pmm_data::dataset::Dataset {
        let world = World::new(WorldConfig::default());
        let mut ds = build_dataset(&world, DatasetId::HmClothes, Scale::Tiny, 42);
        ds.items[0].tokens.clear(); // text missing
        ds.items[1].patches.clear(); // vision missing
        ds.items[2].tokens.clear();
        ds.items[2].patches.clear(); // both missing
        ds.items[4].tokens.truncate(1); // short text, still served
        ds
    }

    #[test]
    fn missing_modality_items_score_finite() {
        let ds = degraded_dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = PmmRecConfig {
            d: 16,
            heads: 2,
            text_layers: 1,
            vision_layers: 1,
            user_layers: 1,
            dropout: 0.0,
            ..Default::default()
        };
        let m = PmmRec::new(cfg, &ds, &mut rng);
        // Every catalogue representation — including the degraded
        // items' — must be finite.
        assert!(m.item_representations().all_finite());
        // Serving a prefix that runs *through* degraded items works.
        let recs = m.recommend_top_k(&[0, 1, 2, 4], 5, false).unwrap();
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| r.score.is_finite()));
        // And full eval over leave-one-out cases stays finite.
        let split = pmm_data::split::SplitDataset::new(degraded_dataset());
        let mut rng = StdRng::seed_from_u64(1);
        let m = PmmRec::new(*m.config(), &split.dataset, &mut rng);
        let metrics = pmm_eval::evaluate_cases(&m, &split.valid);
        assert!(metrics.ndcg10().is_finite() && metrics.hr10().is_finite());
    }

    #[test]
    fn partial_items_fall_back_to_surviving_modality() {
        let ds = degraded_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PmmRecConfig {
            d: 16,
            heads: 2,
            text_layers: 1,
            vision_layers: 1,
            user_layers: 1,
            dropout: 0.0,
            ..Default::default()
        };
        let m = PmmRec::new(cfg, &ds, &mut rng);
        let reps = m.item_representations();
        // Item 3 is intact, items 0-2 degraded; all rows must differ
        // (the fallback is per item, not a shared constant).
        let d = 16;
        let row = |i: usize| &reps.data()[i * d..(i + 1) * d];
        assert_ne!(row(0), row(1), "text-CLS vs vision-CLS fallbacks differ");
        assert_ne!(row(0), row(3));
        assert_ne!(row(1), row(3));
    }

    #[test]
    fn single_modality_models_serve_degraded_items() {
        for modality in [crate::Modality::TextOnly, crate::Modality::VisionOnly] {
            let ds = degraded_dataset();
            let mut rng = StdRng::seed_from_u64(3);
            let cfg = PmmRecConfig {
                d: 16,
                heads: 2,
                text_layers: 1,
                vision_layers: 1,
                user_layers: 1,
                dropout: 0.0,
                modality,
                ..Default::default()
            };
            let m = PmmRec::new(cfg, &ds, &mut rng);
            assert!(m.item_representations().all_finite(), "{modality:?}");
            let recs = m.recommend_top_k(&[0, 2], 3, false).unwrap();
            assert!(recs.iter().all(|r| r.score.is_finite()), "{modality:?}");
        }
    }
}
