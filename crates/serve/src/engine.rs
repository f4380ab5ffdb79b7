//! The serving-side view of a model: the three pipeline stages with
//! fault gates on the encoder calls.
//!
//! `PmmRec` is single-threaded by construction (its autograd graph is
//! `Rc`-based), so the server never shares an engine across workers —
//! each worker thread builds its own replica through a factory
//! closure. Deterministic seeding makes every replica bit-identical,
//! which is what lets the no-fault acceptance check compare served
//! results against direct `recommend_top_k` calls.

use crate::Tier;
use pmm_data::world::Item;
use pmm_eval::SeqRecommender;
use pmm_tensor::Tensor;
use pmmrec::{Modality, PmmRec, Precision, RecommendError, Recommendation};
use std::time::Duration;

/// A serving component a circuit breaker guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// The item text encoder.
    TextEncoder,
    /// The item vision encoder.
    VisionEncoder,
    /// The user-encode + rank path.
    Ranker,
}

impl Component {
    /// Stable label for logs and summaries.
    pub fn label(self) -> &'static str {
        match self {
            Component::TextEncoder => "text_encoder",
            Component::VisionEncoder => "vision_encoder",
            Component::Ranker => "ranker",
        }
    }
}

/// Outcome of the encode stage.
pub struct Encoded {
    /// The `[n_items, d]` catalogue for the attempted rung.
    pub catalog: Tensor,
    /// Components that absorbed an injected `slow` fault — the caller
    /// re-checks the deadline and charges these breakers on a miss.
    pub slept: Vec<Component>,
}

/// The staged serving interface the worker loop drives. One engine
/// per worker thread; anything shared (breakers, caches) lives in the
/// server.
pub trait ServeEngine {
    /// Catalogue size.
    fn n_items(&self) -> usize;

    /// The model-backed rungs this engine can serve, best first
    /// (subset of `Full`/`TextOnly`/`VisionOnly`).
    fn ladder(&self) -> Vec<Tier>;

    /// Encoder components a rung touches.
    fn components(&self, tier: Tier) -> Vec<Component>;

    /// Stage 1: per-request encoder work for a rung. Consults the
    /// fault plan once per component (a `slow` fault sleeps for
    /// `slow_fault`; an `err` fault fails the component).
    fn encode(&self, tier: Tier, slow_fault: Duration) -> Result<Encoded, Component>;

    /// Stage 2: the `[1, d]` user vector for a prefix.
    fn user_encode(&self, catalog: &Tensor, prefix: &[usize]) -> Result<Tensor, RecommendError>;

    /// Stage 3: rank the catalogue for the user. `tier` names the rung
    /// whose catalogue was encoded, so precision-aware engines can
    /// route model-backed rungs through their quantized caches.
    fn rank(
        &self,
        tier: Tier,
        catalog: &Tensor,
        user: &Tensor,
        prefix: &[usize],
        k: usize,
        exclude_seen: bool,
    ) -> Vec<Recommendation>;

    /// Apply streamed delta items to this replica's catalog (the
    /// worker calls it between requests, before serving, whenever the
    /// shared delta log has items this replica has not seen). The
    /// default ignores deltas — engines without an extensible catalog
    /// simply keep serving their base.
    fn apply_delta(&mut self, items: &[Item]) {
        let _ = items;
    }
}

/// Maps a model-backed tier to the modality path it scores through.
pub(crate) fn tier_modality(tier: Tier) -> Option<Modality> {
    match tier {
        Tier::Full => Some(Modality::Both),
        Tier::TextOnly => Some(Modality::TextOnly),
        Tier::VisionOnly => Some(Modality::VisionOnly),
        Tier::CachedTopK | Tier::Popularity => None,
    }
}

/// The production engine: a `PmmRec` replica owned by one worker.
pub struct PmmEngine {
    model: PmmRec,
    /// Ranking precision for model-backed tiers. `Int8` scores through
    /// the model's quantized catalogue cache (per-row affine int8,
    /// dequant-free integer dot products); floor tiers are unaffected.
    precision: Precision,
}

impl PmmEngine {
    /// Wraps a model replica with full-precision (f32) ranking.
    pub fn new(model: PmmRec) -> PmmEngine {
        PmmEngine::with_precision(model, Precision::F32)
    }

    /// Wraps a model replica with an explicit ranking precision — the
    /// serving tier's opt-in to the int8 quantized path.
    pub fn with_precision(model: PmmRec, precision: Precision) -> PmmEngine {
        PmmEngine { model, precision }
    }

    /// The wrapped model.
    pub fn model(&self) -> &PmmRec {
        &self.model
    }

    /// The ranking precision this engine serves with.
    pub fn precision(&self) -> Precision {
        self.precision
    }
}

impl ServeEngine for PmmEngine {
    fn n_items(&self) -> usize {
        SeqRecommender::n_items(&self.model)
    }

    fn ladder(&self) -> Vec<Tier> {
        self.model
            .modality_ladder()
            .into_iter()
            .map(|m| match m {
                Modality::Both => Tier::Full,
                Modality::TextOnly => Tier::TextOnly,
                Modality::VisionOnly => Tier::VisionOnly,
            })
            .collect()
    }

    fn components(&self, tier: Tier) -> Vec<Component> {
        match tier_modality(tier) {
            Some(Modality::Both) => vec![Component::TextEncoder, Component::VisionEncoder],
            Some(Modality::TextOnly) => vec![Component::TextEncoder],
            Some(Modality::VisionOnly) => vec![Component::VisionEncoder],
            None => Vec::new(),
        }
    }

    fn encode(&self, tier: Tier, slow_fault: Duration) -> Result<Encoded, Component> {
        // pmm-audit: allow(hot-unwrap) — ladder() only yields model-backed tiers, so tier_modality is total here
        let modality = tier_modality(tier).expect("encode called on a model-backed tier");
        let mut slept = Vec::new();
        for component in self.components(tier) {
            match pmm_fault::trip_encode() {
                Some(pmm_fault::EncodeFault::Err) => return Err(component),
                Some(pmm_fault::EncodeFault::Slow) => {
                    std::thread::sleep(slow_fault);
                    slept.push(component);
                }
                None => {}
            }
        }
        let catalog = self
            .model
            .serve_catalog(modality)
            // pmm-audit: allow(hot-unwrap) — the modality came from the model's own ladder, so it is supported by construction
            .expect("ladder() only reports supported modalities");
        Ok(Encoded { catalog, slept })
    }

    fn user_encode(&self, catalog: &Tensor, prefix: &[usize]) -> Result<Tensor, RecommendError> {
        self.model.serve_user_vector(catalog, prefix)
    }

    fn rank(
        &self,
        tier: Tier,
        catalog: &Tensor,
        user: &Tensor,
        prefix: &[usize],
        k: usize,
        exclude_seen: bool,
    ) -> Vec<Recommendation> {
        // The quantized path needs the rung's modality to reach the
        // per-modality quantized catalogue cache; anything that falls
        // outside it (floor tiers never rank, quantization refused)
        // degrades to the exact f32 product rather than failing the
        // request.
        if self.precision == Precision::Int8 {
            if let Some(modality) = tier_modality(tier) {
                if let Ok(qcat) = self.model.serve_catalog_q(modality) {
                    return self.model.serve_rank_q(&qcat, user, prefix, k, exclude_seen);
                }
            }
        }
        self.model.serve_rank(catalog, user, prefix, k, exclude_seen)
    }

    fn apply_delta(&mut self, items: &[Item]) {
        self.model.ingest_items(items.to_vec());
    }
}
