//! # pmmrec
//!
//! The paper's contribution: a Pure Multi-Modality based Recommender
//! (PMMRec, ICDE 2024) — item text/vision encoders, a merge-attention
//! fusion module and a Transformer user encoder, trained with the four
//! objectives of Eq. 12:
//!
//! * **DAP** (Eq. 5) — dense auto-regressive next-item prediction with
//!   in-batch negatives,
//! * **NICL** (Eqs. 6–9) — next-item enhanced cross-modal contrastive
//!   learning (with the VCL / ICL / NCL ablation ladder),
//! * **NID** (Eq. 10) — noised item detection over corrupted sequences,
//! * **RCL** (Eq. 11) — robustness-aware sequence-level contrast.
//!
//! Components are plug-and-play: [`TransferSetting`] selects which
//! checkpoint prefixes to load and which modality path to run, covering
//! the paper's five transfer settings (Table I / Section III-E).
//!
//! ```no_run
//! use pmmrec::{PmmRec, PmmRecConfig};
//! use pmm_data::{registry, world::{World, WorldConfig}, Scale, SplitDataset};
//! use pmm_eval::{train_model, SeqRecommender, TrainConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let world = World::new(WorldConfig::default());
//! let data = registry::build_dataset(&world, registry::DatasetId::HmClothes, Scale::Tiny, 42);
//! let split = SplitDataset::new(data);
//! let mut rng = StdRng::seed_from_u64(42);
//! let mut model = PmmRec::new(PmmRecConfig::default(), &split.dataset, &mut rng);
//! let result = train_model(&mut model, &split, &TrainConfig::default(), &mut rng);
//! println!("test: {}", result.test);
//! ```

pub mod ablation;
pub mod config;
pub mod encoders;
pub mod guard;
pub mod model;
pub mod objectives;
pub mod rating;
pub mod recommend;
pub mod transfer;
pub mod user_encoder;

pub use ablation::{NiclVariant, ObjectiveConfig};
pub use config::{Modality, PmmRecConfig, Precision};
pub use guard::{AnomalyGuard, GuardConfig, GuardReport, GuardVerdict};
pub use model::PmmRec;
pub use rating::{RatingData, RatingHead};
pub use recommend::{RecommendError, Recommendation};
pub use transfer::TransferSetting;
