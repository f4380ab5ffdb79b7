//! The PMMRec model: composition, pre-training/fine-tuning steps,
//! scoring and component transfer.

use crate::ablation::ObjectiveConfig;
use crate::config::{Modality, PmmRecConfig};
use crate::encoders::{FusionModule, TextEncoder, VisionEncoder};
use crate::guard::{AnomalyGuard, GuardConfig, GuardReport, GuardVerdict};
use crate::objectives::{dap_masks, nicl_masks, rcl_masks, BatchIndex};
use crate::transfer::TransferSetting;
use crate::user_encoder::UserEncoder;
use pmm_data::batch::{Batch, BatchIter};
use pmm_data::corrupt::{corrupt_sequence, CorruptionConfig};
use pmm_data::dataset::Dataset;
use pmm_data::split::LeaveOneOut;
use pmm_data::world::Item;
use pmm_eval::SeqRecommender;
use pmm_nn::checkpoint::{self, CheckpointError, LoadReport};
use pmm_nn::{mask, AdamW, AdamWConfig, Ctx, Linear, ParamStore};
use pmm_obs::{EpochStats, LossBreakdown};
use pmm_tensor::{QTensor, Tensor, Var};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::path::Path;

/// The Pure Multi-Modality Recommender.
pub struct PmmRec {
    cfg: PmmRecConfig,
    obj: ObjectiveConfig,
    pretraining: bool,
    corpus: Vec<Item>,
    /// Items `0..base_items` came from the construction-time dataset;
    /// items past it arrived through streaming ingestion
    /// ([`PmmRec::ingest_items`]) and form the delta catalogue until a
    /// snapshot fold rebuilds the model over the union.
    base_items: usize,
    store: ParamStore,
    text: Option<TextEncoder>,
    vision: Option<VisionEncoder>,
    fusion: Option<FusionModule>,
    user: UserEncoder,
    nid_head: Linear,
    opt: AdamW,
    name: String,
    /// Cached `[n_items, d]` catalogue representations for scoring,
    /// one slot per serving modality; invalidated by every training
    /// epoch and by transfer loads.
    catalog: RefCell<CatalogCache>,
    /// Telemetry from the most recent `train_epoch`.
    last_stats: Option<EpochStats>,
    /// Non-finite loss/gradient escalation state machine.
    guard: AnomalyGuard,
    /// Learning rate before the guard's current backoff, if any; set on
    /// the first anomalous step of a streak and restored on recovery.
    healthy_lr: Option<f32>,
    /// Monotonic count of attempted optimisation steps, for telemetry.
    step_seq: u64,
    /// The tape snapshot from the most recent audited step, kept so
    /// tests can seed defects into a real training graph and assert
    /// the auditor rejects them.
    last_snapshot: Option<pmm_audit::GraphSnapshot>,
}

/// Per-modality catalogue cache: the serving runtime can rank against
/// the fused representations or against a single encoder's CLS rows
/// (the degraded tiers), and each path caches independently so breaker
/// flapping doesn't thrash recomputation.
#[derive(Default)]
struct CatalogCache {
    both: Option<Tensor>,
    text: Option<Tensor>,
    vision: Option<Tensor>,
    /// Int8 views of the same catalogues for the quantized serving
    /// path, cached separately so an f32-only deployment never pays
    /// quantization. Invalidated together with the f32 slots (the
    /// whole cache is replaced on weight changes), so a quantized
    /// catalogue can never outlive the f32 rows it was derived from.
    q_both: Option<QTensor>,
    q_text: Option<QTensor>,
    q_vision: Option<QTensor>,
}

impl CatalogCache {
    fn slot(&mut self, modality: Modality) -> &mut Option<Tensor> {
        match modality {
            Modality::Both => &mut self.both,
            Modality::TextOnly => &mut self.text,
            Modality::VisionOnly => &mut self.vision,
        }
    }

    fn get(&self, modality: Modality) -> Option<Tensor> {
        match modality {
            Modality::Both => self.both.clone(),
            Modality::TextOnly => self.text.clone(),
            Modality::VisionOnly => self.vision.clone(),
        }
    }

    fn q_slot(&mut self, modality: Modality) -> &mut Option<QTensor> {
        match modality {
            Modality::Both => &mut self.q_both,
            Modality::TextOnly => &mut self.q_text,
            Modality::VisionOnly => &mut self.q_vision,
        }
    }

    fn q_get(&self, modality: Modality) -> Option<QTensor> {
        match modality {
            Modality::Both => self.q_both.clone(),
            Modality::TextOnly => self.q_text.clone(),
            Modality::VisionOnly => self.q_vision.clone(),
        }
    }
}

/// Per-step telemetry from [`PmmRec::step`]. Objective components are
/// post-weighting, so `dap + nicl + nid + rcl == loss`.
#[derive(Default)]
struct StepOutcome {
    loss: f32,
    dap: f32,
    nicl: f32,
    nid: f32,
    rcl: f32,
    grad_norm: f32,
}

impl PmmRec {
    /// Builds a fresh model over `dataset`'s item corpus with the
    /// default (full) objective configuration.
    pub fn new(cfg: PmmRecConfig, dataset: &Dataset, rng: &mut StdRng) -> PmmRec {
        PmmRec::with_objectives(cfg, ObjectiveConfig::default(), dataset, rng)
    }

    /// Builds a model with explicit objective switches (ablations).
    pub fn with_objectives(
        cfg: PmmRecConfig,
        obj: ObjectiveConfig,
        dataset: &Dataset,
        rng: &mut StdRng,
    ) -> PmmRec {
        let corpus = dataset.items.clone();
        let spec = dataset.content;
        let (vocab, text_len, n_patches, patch_dim) =
            (spec.vocab, spec.text_len, spec.n_patches, spec.patch_dim);
        let mut store = ParamStore::new();
        let text = matches!(cfg.modality, Modality::Both | Modality::TextOnly).then(|| {
            TextEncoder::new(&mut store, "text_encoder", &cfg, vocab, text_len, rng)
        });
        let vision = matches!(cfg.modality, Modality::Both | Modality::VisionOnly).then(|| {
            VisionEncoder::new(&mut store, "vision_encoder", &cfg, n_patches, patch_dim, rng)
        });
        let fusion = (cfg.modality == Modality::Both)
            .then(|| FusionModule::new(&mut store, "fusion", &cfg, rng));
        let user = UserEncoder::new(&mut store, "user_encoder", &cfg, rng);
        let nid_head = Linear::new(&mut store, "nid_head", cfg.d, 3, true, rng);
        apply_block_freezing(&mut store, &cfg);
        let opt = AdamW::new(cfg.lr, AdamWConfig::default());
        let name = format!("PMMRec{}", cfg.modality.suffix());
        let base_items = corpus.len();
        PmmRec {
            cfg,
            obj,
            pretraining: false,
            corpus,
            base_items,
            store,
            text,
            vision,
            fusion,
            user,
            nid_head,
            opt,
            name,
            catalog: RefCell::new(CatalogCache::default()),
            last_stats: None,
            guard: AnomalyGuard::new(GuardConfig::default()),
            healthy_lr: None,
            step_seq: 0,
            last_snapshot: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PmmRecConfig {
        &self.cfg
    }

    /// Switches between pre-training (all of Eq. 12) and fine-tuning
    /// (DAP only, Section III-E2).
    pub fn set_pretraining(&mut self, on: bool) {
        self.pretraining = on;
    }

    /// Overrides the display name (useful for table labelling).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Total trainable scalar parameters.
    pub fn n_params(&self) -> usize {
        self.store.total_numel()
    }

    /// Replaces the anomaly-guard policy. Resets the guard's escalation
    /// state and report.
    pub fn set_guard_config(&mut self, cfg: GuardConfig) {
        self.guard = AnomalyGuard::new(cfg);
    }

    /// Cumulative anomaly-guard activity (skips, rollbacks, recoveries)
    /// over this model's lifetime.
    pub fn guard_report(&self) -> GuardReport {
        self.guard.report()
    }

    /// Completed optimizer steps. Anomalous (skipped) steps do not
    /// advance this counter — the invariant chaos tests assert on.
    pub fn optimizer_steps(&self) -> u64 {
        self.opt.steps()
    }

    /// Read access to the parameter store, for external checkpointing
    /// (e.g. [`pmm_nn::checkpoint::CheckpointRotation`]).
    pub fn param_store(&self) -> &ParamStore {
        &self.store
    }

    /// Clones every parameter tensor, in store order.
    fn snapshot_params(&self) -> Vec<Tensor> {
        self.store.params().iter().map(pmm_nn::Param::value_cloned).collect()
    }

    /// Restores a snapshot taken by [`PmmRec::snapshot_params`].
    fn restore_params(&self, snap: &[Tensor]) {
        debug_assert_eq!(snap.len(), self.store.params().len());
        for (p, t) in self.store.params().iter().zip(snap) {
            p.set_value(t.clone());
        }
    }

    /// Saves the full parameter set.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        checkpoint::save(&self.store, path)
    }

    /// Loads pre-trained components per the transfer setting. The model
    /// must have been constructed with the setting's modality (the
    /// architectures must agree).
    #[track_caller]
    pub fn load_transfer(
        &mut self,
        path: impl AsRef<Path>,
        setting: TransferSetting,
    ) -> Result<LoadReport, CheckpointError> {
        assert_eq!(
            self.cfg.modality,
            setting.modality(),
            "load_transfer: model runs {:?} but setting {:?} requires {:?}",
            self.cfg.modality,
            setting,
            setting.modality()
        );
        self.catalog.replace(CatalogCache::default());
        checkpoint::load_filtered(&self.store, path, setting.prefixes())
    }

    // ------------------------------------------------------------------
    // Forward passes
    // ------------------------------------------------------------------

    /// Encodes unique items into per-item representations, returning
    /// `(rep, text_cls, vision_cls)`; the CLS pair is present only on
    /// the dual-modality path.
    ///
    /// On the dual-modality path, items missing exactly one modality
    /// are served from the surviving encoder's CLS instead of the
    /// fusion output (whose other half would be padding) — the
    /// text-only / vision-only serving paths of the paper's transfer
    /// settings, applied per item.
    fn encode_unique(&self, ctx: &mut Ctx<'_>, ids: &[usize]) -> (Var, Option<(Var, Var)>) {
        match self.cfg.modality {
            Modality::Both => {
                let t = self.text.as_ref().expect("text encoder").forward(ctx, &self.corpus, ids);
                let v = self
                    .vision
                    .as_ref()
                    .expect("vision encoder")
                    .forward(ctx, &self.corpus, ids);
                let e = self.fusion.as_ref().expect("fusion").forward(ctx, &t, &v);
                let n = ids.len();
                let partial = ids.iter().any(|&i| {
                    self.corpus[i].tokens.is_empty() != self.corpus[i].patches.is_empty()
                });
                let rep = if partial {
                    // Row j of `combined` is the fused rep, row n+j the
                    // text CLS, row 2n+j the vision CLS of item j.
                    let combined = Var::concat0(&[e, t.cls.clone(), v.cls.clone()]);
                    let rows: Vec<usize> = ids
                        .iter()
                        .enumerate()
                        .map(|(j, &i)| {
                            let item = &self.corpus[i];
                            match (item.tokens.is_empty(), item.patches.is_empty()) {
                                (false, true) => n + j, // vision missing -> text CLS
                                (true, false) => 2 * n + j, // text missing -> vision CLS
                                _ => j,
                            }
                        })
                        .collect();
                    combined.gather_rows(&rows)
                } else {
                    e
                };
                (rep, Some((t.cls, v.cls)))
            }
            Modality::TextOnly => {
                let t = self.text.as_ref().expect("text encoder").forward(ctx, &self.corpus, ids);
                (t.cls, None)
            }
            Modality::VisionOnly => {
                let v = self
                    .vision
                    .as_ref()
                    .expect("vision encoder")
                    .forward(ctx, &self.corpus, ids);
                (v.cls, None)
            }
        }
    }

    /// One optimisation step over a batch; returns the loss value and
    /// its per-objective decomposition.
    fn step(&mut self, batch: &Batch, rng: &mut StdRng) -> StepOutcome {
        let idx = BatchIndex::new(batch);
        let (b, l) = (batch.b, batch.l);
        let valid_w = mask::row_weights(b, l, &batch.lens);

        // Corruption happens before the graph is built (it needs the rng).
        let corruption = (self.pretraining && (self.obj.nid || self.obj.rcl)).then(|| {
            let pool = &idx.unique;
            let mut corr = batch.items.clone();
            let mut labels = vec![0usize; b * l];
            for bi in 0..b {
                let len = batch.lens[bi];
                let (c, lab) = corrupt_sequence(
                    &batch.items[bi * l..bi * l + len],
                    pool,
                    &CorruptionConfig::default(),
                    rng,
                );
                corr[bi * l..bi * l + len].copy_from_slice(&c);
                for (t, la) in lab.iter().enumerate() {
                    labels[bi * l + t] = la.class();
                }
            }
            (corr, labels)
        });

        let fwd = pmm_obs::span("forward");
        let mut ctx = Ctx::train(rng);
        let (reps, cls_pair) = self.encode_unique(&mut ctx, &idx.unique);

        // Per-position representation rows (padding maps to column 0,
        // masked out of every loss).
        let pos_cols: Vec<usize> = (0..b * l)
            .map(|row| {
                let (bi, t) = (row / l, row % l);
                if t < batch.lens[bi] {
                    idx.col[&batch.items[row]]
                } else {
                    0
                }
            })
            .collect();
        let item_rows = reps.gather_rows(&pos_cols);
        let h = self.user.forward(&mut ctx, &item_rows, b, l, &batch.lens);

        // DAP (Eq. 5): always on.
        let sims = h.matmul_nt(&reps);
        let (pos_m, den_m, w) = dap_masks(batch, &idx);
        let mut loss = sims.group_contrastive_loss(&pos_m, &den_m, Some(&w));
        let mut out = StepOutcome { dap: loss.value().scalar_value(), ..Default::default() };
        let mut heads: Vec<(&'static str, Var)> = vec![("dap", loss.clone())];

        if self.pretraining {
            let aux = self.obj.aux_weight;
            // NICL (Eqs. 8-9): requires both modalities.
            if self.obj.nicl.enabled() {
                if let Some((t_cls, v_cls)) = &cls_pair {
                    let inv_t = 1.0 / self.obj.nicl_temperature.max(1e-3);
                    let t_n = t_cls.l2_normalize_rows();
                    let v_n = v_cls.l2_normalize_rows();
                    let (np, nd, nw) = nicl_masks(batch, &idx, self.obj.nicl);
                    let anchors_t = t_n.gather_rows(&pos_cols);
                    let m_t = Var::concat0(&[v_n.clone(), t_n.clone()]);
                    let l_t = anchors_t
                        .matmul_nt(&m_t)
                        .scale(inv_t)
                        .group_contrastive_loss(&np, &nd, Some(&nw));
                    let anchors_v = v_n.gather_rows(&pos_cols);
                    let m_v = Var::concat0(&[t_n, v_n]);
                    let l_v = anchors_v
                        .matmul_nt(&m_v)
                        .scale(inv_t)
                        .group_contrastive_loss(&np, &nd, Some(&nw));
                    let term = l_t.add(&l_v).scale(0.5 * aux);
                    out.nicl = term.value().scalar_value();
                    heads.push(("nicl", term.clone()));
                    loss = loss.add(&term);
                }
            }

            if let Some((corr_items, labels)) = &corruption {
                let corr_cols: Vec<usize> = (0..b * l)
                    .map(|row| {
                        let (bi, t) = (row / l, row % l);
                        if t < batch.lens[bi] {
                            idx.col[&corr_items[row]]
                        } else {
                            0
                        }
                    })
                    .collect();
                let corr_rows = reps.gather_rows(&corr_cols);
                let h_tilde = self.user.forward(&mut ctx, &corr_rows, b, l, &batch.lens);

                // NID (Eq. 10): 3-way classification with a ReLU head.
                if self.obj.nid {
                    let logits = self.nid_head.forward(&mut ctx, &h_tilde).relu();
                    let nid = logits.cross_entropy_logits(labels, Some(&valid_w));
                    let term = nid.scale(aux);
                    out.nid = term.value().scalar_value();
                    heads.push(("nid", term.clone()));
                    loss = loss.add(&term);
                }

                // RCL (Eq. 11): pooled original vs corrupted sequences.
                if self.obj.rcl {
                    let pooled = h.mean_pool(b, l, &valid_w);
                    let pooled_tilde = h_tilde.mean_pool(b, l, &valid_w);
                    let rcl_sims = pooled.matmul_nt(&pooled_tilde);
                    let (rp, rd) = rcl_masks(b);
                    let rcl = rcl_sims.group_contrastive_loss(&rp, &rd, None);
                    let term = rcl.scale(aux);
                    out.rcl = term.value().scalar_value();
                    heads.push(("rcl", term.clone()));
                    loss = loss.add(&term);
                }
            }
        }

        out.loss = loss.value().scalar_value();
        drop(fwd);
        if pmm_fault::trip_nan_loss() {
            // Deterministic chaos: pretend this batch diverged.
            out.loss = f32::NAN;
        }
        if !out.loss.is_finite() {
            // Backpropagating a poisoned loss would only spread the
            // non-finite values; leave the optimizer untouched and let
            // the anomaly guard in `train_epoch` decide what to do.
            return out;
        }
        if cfg!(debug_assertions) || pmm_audit::graph::enabled() {
            heads.push(("total", loss.clone()));
            self.audit_tape(&heads, &ctx);
        }
        loss.backward();
        let _sp = pmm_obs::span("optimizer");
        out.grad_norm = self.opt.step(&self.store, &ctx);
        out
    }

    /// Pre-backward structural audit of this step's autograd tape:
    /// acyclicity, per-op shape consistency, backward bookkeeping, and
    /// reachability of every trainable parameter from the loss. Always
    /// on in debug/test builds; opt-in in release via the bench
    /// `--audit-graph` flag or `PMM_AUDIT_GRAPH=1`.
    ///
    /// Panics on violations — a malformed tape means the gradients are
    /// wrong, which is not a recoverable per-batch condition.
    fn audit_tape(&mut self, heads: &[(&'static str, Var)], ctx: &Ctx) {
        let _sp = pmm_obs::span("graph_audit");
        let named: Vec<(&str, &Var)> = heads.iter().map(|(n, v)| (*n, v)).collect();
        let interned = ctx.interned();
        let params: Vec<(String, &Var, bool)> = interned
            .iter()
            .map(|(id, v)| {
                let (name, trainable) = self
                    .store
                    .params()
                    .iter()
                    .find(|p| p.id() == *id)
                    .map(|p| (p.name().to_string(), p.trainable()))
                    .unwrap_or_else(|| (format!("param#{id}"), false));
                (name, v, trainable)
            })
            .collect();
        let snap = pmm_audit::graph::capture(&named, &params);
        let violations = pmm_audit::audit_snapshot(&snap);
        self.last_snapshot = Some(snap);
        if violations.is_empty() {
            pmm_obs::counter::GRAPH_AUDITS.add(1);
        } else {
            let list: Vec<String> =
                violations.iter().map(|v| format!("  - {v}")).collect();
            panic!("autograd graph audit failed before backward:\n{}", list.join("\n"));
        }
    }

    /// The tape snapshot captured by the most recent audited step, if
    /// auditing was active. Tests tamper with this to prove the
    /// auditor rejects seeded defects on a real training graph.
    pub fn last_graph_snapshot(&self) -> Option<&pmm_audit::GraphSnapshot> {
        self.last_snapshot.as_ref()
    }

    /// Global L2 norm over all parameters (frozen ones included).
    fn param_norm(&self) -> f32 {
        let mut sq = 0.0f64;
        for p in self.store.params() {
            for v in p.value().data() {
                sq += f64::from(*v) * f64::from(*v);
            }
        }
        sq.sqrt() as f32
    }

    /// Whether this model has the encoders required to serve the given
    /// modality path: `Both` needs the fusion module, the single paths
    /// need the matching encoder. A dual-modality model therefore
    /// supports all three (the single paths rank against one encoder's
    /// CLS rows — the serving runtime's degraded tiers).
    pub fn supports_modality(&self, modality: Modality) -> bool {
        match modality {
            Modality::Both => self.fusion.is_some(),
            Modality::TextOnly => self.text.is_some(),
            Modality::VisionOnly => self.vision.is_some(),
        }
    }

    /// The modality degradation ladder this model can serve, best path
    /// first. `Both` models return all three rungs; single-modality
    /// models return just their own path.
    pub fn modality_ladder(&self) -> Vec<Modality> {
        [Modality::Both, Modality::TextOnly, Modality::VisionOnly]
            .into_iter()
            .filter(|&m| self.supports_modality(m))
            .collect()
    }

    /// Per-item representation for serving via an explicit modality
    /// path. The caller has already checked [`PmmRec::supports_modality`].
    fn encode_unique_via(&self, ctx: &mut Ctx<'_>, ids: &[usize], modality: Modality) -> Var {
        match modality {
            Modality::Both => self.encode_unique(ctx, ids).0,
            Modality::TextOnly => {
                self.text.as_ref().expect("text encoder").forward(ctx, &self.corpus, ids).cls
            }
            Modality::VisionOnly => {
                self.vision.as_ref().expect("vision encoder").forward(ctx, &self.corpus, ids).cls
            }
        }
    }

    // ------------------------------------------------------------------
    // Streaming ingestion (delta catalogue)
    // ------------------------------------------------------------------

    /// Number of items in the base (construction-time) corpus.
    pub fn base_len(&self) -> usize {
        self.base_items
    }

    /// Number of streamed items appended past the base corpus.
    pub fn delta_len(&self) -> usize {
        self.corpus.len() - self.base_items
    }

    /// Appends freshly ingested items to the serving corpus. Because
    /// the model is ID-free, this is pure inference: no weights change,
    /// and the new items become rankable the moment their content is
    /// encoded. The cached catalogue is *not* invalidated — the next
    /// catalogue access encodes only the appended tail and extends the
    /// cached rows in place, which is bit-identical to a cold rebuild
    /// over the union: every encoder op is row-independent (per-item
    /// layernorm/softmax/attention) and every matmul accumulates in
    /// strictly ascending-k order on all kernel paths, so an item's
    /// representation does not depend on which other items shared its
    /// encode chunk.
    pub fn ingest_items(&mut self, items: Vec<Item>) -> usize {
        let appended = items.len();
        self.corpus.extend(items);
        appended
    }

    /// Encodes the full catalogue with the current weights (cached).
    fn catalog_reps(&self) -> Tensor {
        self.catalog_reps_via(self.cfg.modality)
    }

    /// Encodes the full catalogue through the given modality path,
    /// caching per modality. For the model's native modality this is
    /// exactly the scoring catalogue; the other paths back the serving
    /// runtime's degraded tiers.
    ///
    /// When streamed items extended the corpus past a cached
    /// catalogue, only the missing tail is encoded and appended to the
    /// cached rows (see [`PmmRec::ingest_items`] for why that is
    /// bit-identical to a cold rebuild).
    pub(crate) fn catalog_reps_via(&self, modality: Modality) -> Tensor {
        const CHUNK: usize = 64;
        let n = self.corpus.len();
        let cached = self.catalog.borrow().get(modality);
        if let Some(cat) = &cached {
            if cat.shape()[0] == n {
                return cat.clone();
            }
        }
        let done = cached.as_ref().map_or(0, |c| c.shape()[0]);
        let mut data = Vec::with_capacity(n * self.cfg.d);
        if let Some(cat) = &cached {
            data.extend_from_slice(cat.data());
        }
        let mut start = done;
        while start < n {
            let ids: Vec<usize> = (start..(start + CHUNK).min(n)).collect();
            let mut ctx = Ctx::eval();
            let reps = self.encode_unique_via(&mut ctx, &ids, modality);
            data.extend_from_slice(reps.value().data());
            start += CHUNK;
        }
        let cat = Tensor::from_vec(data, &[n, self.cfg.d]).expect("catalog numel");
        *self.catalog.borrow_mut().slot(modality) = Some(cat.clone());
        cat
    }

    /// Int8 view of the catalogue for the quantized ranking path,
    /// derived from [`PmmRec::catalog_reps_via`] and cached per
    /// modality alongside the f32 rows (same invalidation). A stale
    /// row count (streamed items landed since quantization) re-derives
    /// from the extended f32 rows; quantization is per-row affine, so
    /// pre-existing rows requantize to identical bytes.
    pub(crate) fn quantized_catalog_via(&self, modality: Modality) -> QTensor {
        if let Some(q) = self.catalog.borrow().q_get(modality) {
            if q.rows() == self.corpus.len() {
                return q;
            }
        }
        let cat = self.catalog_reps_via(modality);
        let q = QTensor::quantize_rows(&cat);
        *self.catalog.borrow_mut().q_slot(modality) = Some(q.clone());
        q
    }

    /// Crate-internal access to the cached catalogue (see
    /// [`PmmRec::item_representations`]).
    pub(crate) fn catalog_for_export(&self) -> Tensor {
        self.catalog_reps()
    }

    /// Final user-encoder hidden state per sequence of a padded batch.
    pub(crate) fn user_hidden_last(&self, batch: &Batch) -> Tensor {
        self.user_hidden_last_with(&self.catalog_reps(), batch)
    }

    /// Like [`PmmRec::user_hidden_last`] but against an explicit
    /// catalogue (the serving runtime passes the tier's catalogue so
    /// user encoding and ranking see the same representations).
    pub(crate) fn user_hidden_last_with(&self, cat: &Tensor, batch: &Batch) -> Tensor {
        let (b, l) = (batch.b, batch.l);
        let rows = cat.gather_rows(&batch.items);
        let mut ctx = Ctx::eval();
        let h = self
            .user
            .forward(&mut ctx, &Var::constant(rows), b, l, &batch.lens);
        let last_rows: Vec<usize> = (0..b).map(|bi| bi * l + batch.lens[bi] - 1).collect();
        h.value().gather_rows(&last_rows)
    }
}

/// Freezes everything in the item encoders except the top `k` blocks
/// (mirrors "all text and vision encoders are fine-tuned with only the
/// top 2 Transformer blocks").
fn apply_block_freezing(store: &mut ParamStore, cfg: &PmmRecConfig) {
    let Some(top) = cfg.finetune_top_blocks else {
        return;
    };
    for (prefix, layers) in [
        ("text_encoder", cfg.text_layers),
        ("vision_encoder", cfg.vision_layers),
    ] {
        store.freeze_prefix(format!("{prefix}.embed"));
        store.freeze_prefix(format!("{prefix}.proj"));
        for i in 0..layers.saturating_sub(top) {
            store.freeze_prefix(format!("{prefix}.trm.blocks.{i}."));
        }
    }
}

impl SeqRecommender for PmmRec {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_items(&self) -> usize {
        self.corpus.len()
    }

    fn train_epoch(&mut self, train: &[Vec<usize>], rng: &mut StdRng) -> f32 {
        self.catalog.replace(CatalogCache::default());
        // "Last good checkpoint" for rollbacks: the epoch-start weights,
        // held in memory so recovery never touches the filesystem.
        let snapshot = self.guard.config().enabled.then(|| self.snapshot_params());
        let mut sum = StepOutcome::default();
        let mut applied = 0usize;
        let mut skipped = 0u32;
        // Drive batching with a dedicated iterator RNG so the item-count
        // of corruption draws cannot desynchronise batch composition.
        let batch_list: Vec<Batch> =
            BatchIter::new(train, self.cfg.batch_size, self.cfg.max_len, rng).collect();
        for batch in &batch_list {
            self.step_seq += 1;
            let out = self.step(batch, rng);
            let finite = out.loss.is_finite() && out.grad_norm.is_finite();
            match self.guard.observe(finite) {
                GuardVerdict::Proceed => {
                    if let Some(lr) = self.healthy_lr.take() {
                        self.opt.set_lr(lr);
                        pmm_obs::counter::RECOVERIES.add(1);
                        pmm_obs::sink::emit_guard(
                            "recovery",
                            self.step_seq,
                            "finite step after anomaly; learning rate restored",
                        );
                    }
                    sum.loss += out.loss;
                    sum.dap += out.dap;
                    sum.nicl += out.nicl;
                    sum.nid += out.nid;
                    sum.rcl += out.rcl;
                    sum.grad_norm += out.grad_norm;
                    applied += 1;
                }
                GuardVerdict::Skip => {
                    skipped += 1;
                    let lr = self.opt.lr();
                    self.healthy_lr.get_or_insert(lr);
                    let backed = self.guard.backed_off_lr(lr);
                    self.opt.set_lr(backed);
                    pmm_obs::counter::ANOMALY_STEPS.add(1);
                    pmm_obs::sink::emit_guard(
                        "anomaly",
                        self.step_seq,
                        &format!(
                            "non-finite step (loss {}, grad_norm {}) skipped; lr {lr:e} -> {backed:e}",
                            out.loss, out.grad_norm
                        ),
                    );
                    pmm_obs::obs_warn!(
                        "guard",
                        "[{}] step {}: non-finite loss/grad; skipped, lr backed off to {backed:e}",
                        self.name,
                        self.step_seq
                    );
                }
                GuardVerdict::Rollback => {
                    skipped += 1;
                    pmm_obs::counter::ANOMALY_STEPS.add(1);
                    pmm_obs::counter::ROLLBACKS.add(1);
                    if let Some(snap) = &snapshot {
                        self.restore_params(snap);
                    }
                    self.opt.reset_state();
                    if let Some(lr) = self.healthy_lr.take() {
                        self.opt.set_lr(lr);
                    }
                    pmm_obs::sink::emit_guard(
                        "rollback",
                        self.step_seq,
                        "consecutive anomaly limit hit; epoch-start weights restored, optimizer state reset",
                    );
                    pmm_obs::obs_warn!(
                        "guard",
                        "[{}] step {}: {} consecutive anomalies; rolled back to epoch-start weights",
                        self.name,
                        self.step_seq,
                        self.guard.config().max_consecutive
                    );
                }
            }
        }
        if applied + skipped as usize == 0 {
            self.last_stats = None;
            return 0.0;
        }
        if applied == 0 {
            // Every step was anomalous: report a non-finite loss so the
            // harness can flag the epoch instead of mistaking 0 for
            // perfect convergence.
            let stats = EpochStats {
                loss: f32::NAN,
                breakdown: None,
                grad_norm: f32::NAN,
                param_norm: self.param_norm(),
                steps: 0,
                skipped,
            };
            self.last_stats = Some(stats);
            return stats.loss;
        }
        let inv = 1.0 / applied as f32;
        let stats = EpochStats {
            loss: sum.loss * inv,
            breakdown: Some(LossBreakdown {
                dap: sum.dap * inv,
                nicl: sum.nicl * inv,
                nid: sum.nid * inv,
                rcl: sum.rcl * inv,
            }),
            grad_norm: sum.grad_norm * inv,
            param_norm: self.param_norm(),
            steps: applied as u32,
            skipped,
        };
        self.last_stats = Some(stats);
        stats.loss
    }

    fn epoch_stats(&self) -> Option<EpochStats> {
        self.last_stats
    }

    fn set_guard_policy(&mut self, policy: pmm_eval::GuardPolicy) {
        self.set_guard_config(GuardConfig {
            enabled: policy.enabled,
            max_consecutive: policy.max_consecutive,
            lr_backoff: policy.lr_backoff,
            min_lr: policy.min_lr,
        });
    }

    fn score_cases(&self, cases: &[LeaveOneOut]) -> Vec<Vec<f32>> {
        if cases.is_empty() {
            return Vec::new();
        }
        let cat = self.catalog_reps();
        let max_len = self.cfg.max_len;
        let prefixes: Vec<&[usize]> = cases
            .iter()
            .map(|c| {
                let p = c.prefix.as_slice();
                &p[p.len().saturating_sub(max_len)..]
            })
            .collect();
        let batch = Batch::from_sequences(&prefixes, max_len);
        let b = batch.b;
        let h_last = self.user_hidden_last(&batch);
        let scores = h_last.matmul_t(&cat, false, true);
        let n = self.corpus.len();
        (0..b)
            .map(|bi| scores.data()[bi * n..(bi + 1) * n].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_data::registry::{build_dataset, DatasetId, Scale};
    use pmm_data::world::{World, WorldConfig};
    use pmm_eval::{evaluate_cases, train_model, TrainConfig};
    use pmm_data::split::SplitDataset;
    use rand::SeedableRng;

    fn tiny_cfg() -> PmmRecConfig {
        PmmRecConfig {
            d: 16,
            heads: 2,
            text_layers: 1,
            vision_layers: 1,
            fusion_layers: 1,
            user_layers: 1,
            batch_size: 8,
            max_len: 8,
            dropout: 0.0,
            ..Default::default()
        }
    }

    fn tiny_split(id: DatasetId) -> SplitDataset {
        let world = World::new(WorldConfig::default());
        SplitDataset::new(build_dataset(&world, id, Scale::Tiny, 42))
    }

    #[test]
    fn finetune_step_reduces_loss() {
        let split = tiny_split(DatasetId::HmClothes);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        let first = model.train_epoch(&split.train, &mut rng);
        let mut last = first;
        for _ in 0..4 {
            last = model.train_epoch(&split.train, &mut rng);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn pretraining_runs_all_objectives() {
        let split = tiny_split(DatasetId::Bili);
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        model.set_pretraining(true);
        let loss = model.train_epoch(&split.train, &mut rng);
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn epoch_stats_breakdown_sums_to_loss() {
        let split = tiny_split(DatasetId::Bili);
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        model.set_pretraining(true);
        let loss = model.train_epoch(&split.train, &mut rng);
        let stats = model.epoch_stats().expect("stats after epoch");
        assert_eq!(stats.loss, loss);
        assert!(stats.steps > 0);
        assert!(stats.grad_norm > 0.0, "grad norm {}", stats.grad_norm);
        assert!(stats.param_norm > 0.0, "param norm {}", stats.param_norm);
        let b = stats.breakdown.expect("pmmrec reports a breakdown");
        assert!(
            (b.total() - loss).abs() <= 1e-4 * loss.abs().max(1.0),
            "components {b:?} sum {} != loss {loss}",
            b.total()
        );
        // All four objectives are active under the default config.
        assert!(b.dap > 0.0 && b.nicl > 0.0 && b.nid > 0.0 && b.rcl > 0.0, "{b:?}");
    }

    #[test]
    fn single_modality_variants_train() {
        let split = tiny_split(DatasetId::KwaiFood);
        for modality in [Modality::TextOnly, Modality::VisionOnly] {
            let mut rng = StdRng::seed_from_u64(0);
            let cfg = PmmRecConfig { modality, ..tiny_cfg() };
            let mut model = PmmRec::new(cfg, &split.dataset, &mut rng);
            let loss = model.train_epoch(&split.train, &mut rng);
            assert!(loss.is_finite(), "{modality:?}");
            let m = evaluate_cases(&model, &split.valid);
            assert_eq!(m.cases, split.valid.len());
        }
    }

    #[test]
    fn trained_model_beats_untrained_ranking() {
        let split = tiny_split(DatasetId::HmShoes);
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        let before = evaluate_cases(&model, &split.valid);
        let cfg = TrainConfig {
            max_epochs: 12,
            patience: 0,
            eval_every: 4,
            log_level: pmm_obs::Level::Warn,
            start_epoch: 0,
            guard: pmm_eval::GuardPolicy::default(),
        };
        let result = train_model(&mut model, &split, &cfg, &mut rng);
        assert!(
            result.valid.ndcg10() > before.ndcg10(),
            "training did not help: {} -> {}",
            before.ndcg10(),
            result.valid.ndcg10()
        );
    }

    #[test]
    fn transfer_roundtrip_restores_components() -> Result<(), CheckpointError> {
        let split = tiny_split(DatasetId::Amazon);
        let mut rng = StdRng::seed_from_u64(2);
        let mut source = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        source.set_pretraining(true);
        source.train_epoch(&split.train, &mut rng);
        let path = std::env::temp_dir().join(format!("pmmrec_test_{}.ckpt", std::process::id()));
        source.save(&path)?;

        let target_split = tiny_split(DatasetId::AmazonShoes);
        let mut target = PmmRec::new(tiny_cfg(), &target_split.dataset, &mut rng);
        let report = target.load_transfer(&path, TransferSetting::Full)?;
        assert!(report.loaded.iter().any(|n| n.starts_with("user_encoder.")));
        assert!(report.loaded.iter().any(|n| n.starts_with("fusion.")));
        // Item-encoder-only transfer leaves the user encoder fresh.
        let mut target2 = PmmRec::new(tiny_cfg(), &target_split.dataset, &mut rng);
        let report2 = target2.load_transfer(&path, TransferSetting::ItemEncoders)?;
        assert!(report2.loaded.iter().all(|n| !n.starts_with("user_encoder.")));
        std::fs::remove_file(path).ok();
        Ok(())
    }

    #[test]
    #[should_panic(expected = "load_transfer")]
    fn transfer_modality_mismatch_is_rejected() {
        let split = tiny_split(DatasetId::AmazonShoes);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        let _ = model.load_transfer("/nonexistent", TransferSetting::TextOnly);
    }

    #[test]
    fn catalog_cache_is_invalidated_by_training() {
        let split = tiny_split(DatasetId::BiliFood);
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        let before = model.catalog_reps();
        model.train_epoch(&split.train, &mut rng);
        let after = model.catalog_reps();
        assert_ne!(before.data(), after.data());
    }

    #[test]
    fn ingested_items_serve_bit_identically_to_a_cold_build() {
        let world = World::new(WorldConfig::default());
        let full = build_dataset(&world, DatasetId::Hm, Scale::Tiny, 42);
        let n = full.items.len();
        assert!(n > 12, "need a tail to stream in");
        let delta: Vec<Item> = full.items[n - 6..].to_vec();
        let mut base = full.clone();
        base.items.truncate(n - 6);

        // Same seed + same architecture dims → identical weights, so
        // the only difference is how the corpus arrived.
        let mut rng = StdRng::seed_from_u64(0);
        let cold = PmmRec::new(tiny_cfg(), &full, &mut rng);
        let mut rng = StdRng::seed_from_u64(0);
        let mut streamed = PmmRec::new(tiny_cfg(), &base, &mut rng);

        // Prime the cache over the base corpus first so the delta path
        // actually extends cached rows instead of cold-building.
        let base_cat = streamed.catalog_reps();
        assert_eq!(base_cat.shape()[0], n - 6);
        assert_eq!(streamed.ingest_items(delta), 6);
        assert_eq!(streamed.base_len(), n - 6);
        assert_eq!(streamed.delta_len(), 6);
        assert_eq!(streamed.n_items(), n);

        let cat_cold = cold.catalog_reps();
        let cat_streamed = streamed.catalog_reps();
        assert_eq!(cat_cold.shape(), cat_streamed.shape());
        assert_eq!(
            cat_cold.data(),
            cat_streamed.data(),
            "delta append must be bit-identical to a cold build over the union"
        );

        // Served top-k over base+delta == cold top-k, f32 and int8.
        let prefix = [0usize, 1, 2];
        assert_eq!(
            streamed.recommend_top_k(&prefix, 10, true).unwrap(),
            cold.recommend_top_k(&prefix, 10, true).unwrap(),
        );
        assert_eq!(
            streamed
                .recommend_top_k_with(crate::Precision::Int8, &prefix, 10, true)
                .unwrap(),
            cold.recommend_top_k_with(crate::Precision::Int8, &prefix, 10, true)
                .unwrap(),
        );
    }

    #[test]
    fn stale_quantized_catalog_requantizes_over_the_union() {
        let world = World::new(WorldConfig::default());
        let full = build_dataset(&world, DatasetId::Bili, Scale::Tiny, 42);
        let n = full.items.len();
        let delta: Vec<Item> = full.items[n - 5..].to_vec();
        let mut base = full.clone();
        base.items.truncate(n - 5);
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = PmmRec::new(tiny_cfg(), &base, &mut rng);
        // Quantize over the base, then stream: the q cache is stale by
        // row count and must re-derive over the union.
        let q_base = m.quantized_catalog_via(Modality::Both);
        assert_eq!(q_base.rows(), n - 5);
        m.ingest_items(delta);
        let q_union = m.quantized_catalog_via(Modality::Both);
        assert_eq!(q_union.rows(), n);
    }

    #[test]
    fn ablation_variants_all_train() {
        let split = tiny_split(DatasetId::Kwai);
        for (name, obj) in ObjectiveConfig::table8_variants() {
            let mut rng = StdRng::seed_from_u64(5);
            let mut model = PmmRec::with_objectives(tiny_cfg(), obj, &split.dataset, &mut rng);
            model.set_pretraining(true);
            let loss = model.train_epoch(&split.train[..8.min(split.train.len())], &mut rng);
            assert!(loss.is_finite(), "{name}: loss {loss}");
        }
    }

    #[test]
    fn anomaly_guard_skips_injected_nan_step() {
        let split = tiny_split(DatasetId::HmClothes);
        let mut rng = StdRng::seed_from_u64(8);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        pmm_fault::install(pmm_fault::FaultPlan::parse("nan@0").unwrap());
        let loss = model.train_epoch(&split.train, &mut rng);
        pmm_fault::clear();
        assert!(loss.is_finite(), "healthy steps must still average to a finite loss");
        let r = model.guard_report();
        assert_eq!(r.anomalies, 1);
        assert_eq!(r.rollbacks, 0);
        assert_eq!(r.recoveries, 1, "the next finite step recovers");
        let stats = model.epoch_stats().expect("stats");
        assert_eq!(stats.skipped, 1);
        assert!(stats.steps > 0);
        // The poisoned step left no trace in the optimizer: only the
        // applied steps advanced AdamW (so no moments were written for
        // the skipped batch either).
        assert_eq!(model.optimizer_steps(), u64::from(stats.steps));
        // Recovery restored the pre-backoff learning rate.
        assert_eq!(model.opt.lr(), model.cfg.lr);
    }

    #[test]
    fn guard_rolls_back_to_epoch_start_after_k_anomalies() {
        let split = tiny_split(DatasetId::Bili);
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        model.set_guard_config(crate::guard::GuardConfig {
            max_consecutive: 2,
            ..Default::default()
        });
        let before = model.item_representations();
        // Poison every step of the epoch: the guard must roll back and
        // the epoch must end exactly where it started.
        let spec: Vec<String> = (0..200).map(|i| format!("nan@{i}")).collect();
        pmm_fault::install(pmm_fault::FaultPlan::parse(&spec.join(",")).unwrap());
        let loss = model.train_epoch(&split.train, &mut rng);
        pmm_fault::clear();
        assert!(loss.is_nan(), "an epoch with zero applied steps reports NaN, not 0");
        let r = model.guard_report();
        assert!(r.rollbacks >= 1, "{r:?}");
        assert_eq!(r.recoveries, 0);
        assert_eq!(model.optimizer_steps(), 0, "no optimizer state may survive");
        let stats = model.epoch_stats().expect("stats");
        assert_eq!(stats.steps, 0);
        assert!(stats.skipped > 0);
        let after = model.item_representations();
        assert_eq!(before.data(), after.data(), "rollback must restore epoch-start weights");
    }

    #[test]
    fn guard_recovers_training_after_rollback() {
        let split = tiny_split(DatasetId::KwaiFood);
        let mut rng = StdRng::seed_from_u64(10);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        model.set_guard_config(crate::guard::GuardConfig {
            max_consecutive: 2,
            ..Default::default()
        });
        // Two consecutive poisoned steps force a rollback; the rest of
        // the epoch trains normally from the restored weights.
        pmm_fault::install(pmm_fault::FaultPlan::parse("nan@0,nan@1").unwrap());
        let loss = model.train_epoch(&split.train, &mut rng);
        pmm_fault::clear();
        let r = model.guard_report();
        assert_eq!(r.rollbacks, 1);
        assert_eq!(r.anomalies, 2);
        assert!(loss.is_finite(), "post-rollback steps keep the run alive");
        assert!(model.optimizer_steps() > 0);
    }

    #[test]
    fn missing_modality_items_train_to_finite_loss() {
        let world = World::new(WorldConfig::default());
        let mut ds = build_dataset(&world, DatasetId::HmShoes, Scale::Tiny, 42);
        ds.items[1].tokens.clear(); // text missing
        ds.items[2].patches.clear(); // vision missing
        ds.items[3].tokens.clear();
        ds.items[3].patches.clear(); // both missing
        let split = SplitDataset::new(ds);
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = PmmRec::new(tiny_cfg(), &split.dataset, &mut rng);
        model.set_pretraining(true);
        let loss = model.train_epoch(&split.train, &mut rng);
        assert!(loss.is_finite(), "degraded items must not poison training");
        assert_eq!(model.guard_report().anomalies, 0);
    }

    #[test]
    fn block_freezing_freezes_lower_layers() {
        let split = tiny_split(DatasetId::HmClothes);
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = PmmRecConfig {
            text_layers: 2,
            vision_layers: 2,
            finetune_top_blocks: Some(1),
            ..tiny_cfg()
        };
        let model = PmmRec::new(cfg, &split.dataset, &mut rng);
        let emb = model.store.get("text_encoder.embed.weight").unwrap();
        assert!(model.store.is_frozen(emb));
        let top = model.store.get("text_encoder.trm.blocks.1.attn.wq.weight").unwrap();
        assert!(!model.store.is_frozen(top));
        let bottom = model.store.get("text_encoder.trm.blocks.0.attn.wq.weight").unwrap();
        assert!(model.store.is_frozen(bottom));
    }
}
