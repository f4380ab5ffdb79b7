//! Per-layer measurements for the traced run: benchmark-side timers
//! around direct calls into each layer's public functions, plus checks
//! that pass only when two independent paths agree. The same suite runs
//! on every workload, so a layer's figure means the same everywhere.

use crate::checks;
use crate::serve::{self, K};
use crate::stats::{fast_mean, quantile, Report};
use pmm_data::world::Item;
use pmm_eval::{evaluate_cases, SeqRecommender};
use pmm_ingest::Wal;
use pmm_nn::{AdamW, AdamWConfig, Ctx, ParamStore, TransformerEncoder};
use pmm_obs::counter::MATMUL_FLOPS;
use pmm_serve::Server;
use pmm_tensor::{Tensor, Var};
use pmm_trace::hist::{H_QUEUE_WAIT, H_TOTAL};
use pmmrec::{Modality, NiclVariant, ObjectiveConfig, PmmRec, PmmRecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Wall time in microseconds of a call of `f`: the mean of the fastest
/// tenth of `reps` calls, the rule the end-to-end metrics use.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t)
        })
        .collect();
    fast_mean(&samples)
}

/// A dense random tensor without zero entries (the FLOP counter skips
/// multiply-adds by exact zeros, so the shape formula holds only for
/// operands without them).
fn dense(shape: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::randn(shape, 1.0, rng).map(|v| if v == 0.0 { 1e-3 } else { v })
}

/// Times one matmul shape and checks the FLOP counter against 2·m·k·n.
fn matmul_us(a: &Tensor, b: &Tensor, trans_b: bool, errors: &mut Vec<String>) -> f64 {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = if trans_b { b.shape()[0] } else { b.shape()[1] };
    pmm_obs::set_enabled(true);
    let before = MATMUL_FLOPS.get();
    std::hint::black_box(a.matmul_t(b, false, trans_b));
    let counted = MATMUL_FLOPS.delta_since(before);
    pmm_obs::set_enabled(false);
    if let Err(e) = checks::check_flops(counted, m, k, n) {
        errors.push(e);
    }
    time_us(400, || {
        std::hint::black_box(a.matmul_t(b, false, trans_b));
    })
}

/// Training-side layers, on the pre-training dataset.
fn training(seed: u64, report: &mut Report, errors: &mut Vec<String>) {
    let split = crate::pretrain::split(seed);
    let cfg = PmmRecConfig::default();
    let seqs: Vec<Vec<usize>> = split.train[..cfg.batch_size].to_vec();
    let variants = [
        ("core.step_dap_ms", NiclVariant::Off, false, false),
        ("core.step_dap_nicl_ms", NiclVariant::Full, false, false),
        ("core.step_dap_nicl_nid_ms", NiclVariant::Full, true, false),
        ("core.step_full_ms", NiclVariant::Full, true, true),
    ];
    let mut models: Vec<(PmmRec, StdRng)> = variants
        .iter()
        .map(|&(_, nicl, nid, rcl)| {
            let obj = ObjectiveConfig {
                nicl,
                nid,
                rcl,
                ..ObjectiveConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = PmmRec::with_objectives(cfg, obj, &split.dataset, &mut rng);
            m.set_pretraining(true);
            m.train_epoch(&seqs, &mut rng);
            (m, rng)
        })
        .collect();
    // The variants take turns, so a slow stretch of the host falls on
    // all of them alike and their differences keep their meaning.
    let mut steps = vec![Vec::new(); variants.len()];
    for _ in 0..6 {
        for ((m, rng), times) in models.iter_mut().zip(&mut steps) {
            let t = Instant::now();
            m.train_epoch(&seqs, rng);
            times.push(ms(t));
        }
    }
    for ((name, ..), times) in variants.iter().zip(&steps) {
        report.put(name, fast_mean(times), "ms");
    }
    // Validation scoring right after an epoch: the catalogue cache is
    // cold, as training leaves it.
    let validate: Vec<f64> = (0..3)
        .map(|i| {
            let m = crate::pretrain::model(&split, seed + i);
            let t = Instant::now();
            std::hint::black_box(evaluate_cases(&m, &split.valid));
            ms(t)
        })
        .collect();
    report.put("eval.validate_ms", fast_mean(&validate), "ms");

    // A standalone user encoder: one batch forward + backward, then
    // one AdamW step over its parameters.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE1C);
    let (b, l, d) = (cfg.batch_size, cfg.max_len, cfg.d);
    let mut store = ParamStore::new();
    let enc = TransformerEncoder::new(&mut store, "bench_user", cfg.user_encoder_cfg(), &mut rng);
    let x = dense(&[b * l, d], &mut rng);
    let lens = vec![l; b];
    let mut opt = AdamW::new(cfg.lr, AdamWConfig::default());
    let (mut fwd_bwd, mut adamw) = (Vec::new(), Vec::new());
    for _ in 0..12 {
        let mut drop_rng = StdRng::seed_from_u64(1);
        let mut ctx = Ctx::train(&mut drop_rng);
        let t = Instant::now();
        let h = enc.forward(&mut ctx, &Var::constant(x.clone()), b, l, &lens);
        h.sum_all().backward();
        fwd_bwd.push(ms(t));
        let t = Instant::now();
        opt.step(&store, &ctx);
        adamw.push(ms(t));
    }
    report.put("nn.encoder_fwd_bwd_ms", fast_mean(&fwd_bwd), "ms");
    report.put("nn.adamw_step_ms", fast_mean(&adamw), "ms");

    // The feed-forward product at the training shape: [b·l, d]·[d, d·ff].
    let a = dense(&[b * l, d], &mut rng);
    let w = dense(&[d, d * cfg.ff_mult], &mut rng);
    report.put(
        "tensor.matmul_ffn_us",
        matmul_us(&a, &w, false, errors),
        "us",
    );
}

/// Serving-side layers, on the fused source catalogue.
fn serving(seed: u64, report: &mut Report, errors: &mut Vec<String>) {
    let src = serve::source(seed);
    let model_seed = seed ^ 0x5EED;
    for (name, modality) in [
        ("core.catalog_text_ms", Modality::TextOnly),
        ("core.catalog_vision_ms", Modality::VisionOnly),
        ("core.catalog_both_ms", Modality::Both),
    ] {
        let m = serve::replica(&src.dataset, model_seed);
        let t = Instant::now();
        let cat = m.serve_catalog(modality);
        report.put(name, ms(t), "ms");
        if let Err(e) = cat {
            errors.push(format!("{name}: {e}"));
        }
    }

    let mut m = serve::replica(&src.dataset, model_seed);
    let Ok(cat) = m.serve_catalog(Modality::Both) else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C0);
    let user = dense(&[1, cat.shape()[1]], &mut rng);
    report.put(
        "tensor.matmul_score_us",
        matmul_us(&user, &cat, true, errors),
        "us",
    );

    let probes: Vec<Vec<usize>> = src.prefixes.iter().take(300).cloned().collect();
    let (mut uv, mut rank) = (Vec::new(), Vec::new());
    for p in &probes {
        let t = Instant::now();
        let Ok(u) = m.serve_user_vector(&cat, p) else {
            continue;
        };
        uv.push(us(t));
        let t = Instant::now();
        std::hint::black_box(m.serve_rank(&cat, &u, p, K, true));
        rank.push(us(t));
    }
    report.put("core.user_vector_us", fast_mean(&uv), "us");
    report.put("core.rank_us", fast_mean(&rank), "us");

    // One new item: ingest it, then extend the cached catalogue by it.
    let items: Vec<Item> = serve::target_items(seed).into_iter().take(20).collect();
    let delta: Vec<f64> = items
        .iter()
        .map(|item| {
            let t = Instant::now();
            m.ingest_items(vec![item.clone()]);
            std::hint::black_box(m.serve_catalog(Modality::Both).ok());
            us(t)
        })
        .collect();
    report.put("core.delta_item_us", fast_mean(&delta), "us");

    let server = Server::start(
        serve::server_config(),
        serve::factory(Arc::clone(&src.dataset), model_seed),
        src.popularity.clone(),
    );
    if let Err(e) = serve::warm(&server, &src.prefixes[0]) {
        errors.push(e);
        return;
    }
    // Concurrency 1, each request right after the same prefix's direct
    // staged calls, so both see the same host phase. The server's own
    // request_total_ns histogram must agree with the client's clock.
    pmm_obs::set_enabled(true);
    let total_base = H_TOTAL.snapshot();
    let (mut direct, mut served) = (Vec::new(), Vec::new());
    for (i, p) in probes.iter().enumerate() {
        let t = Instant::now();
        if let Ok(u) = m.serve_user_vector(&cat, p) {
            std::hint::black_box(m.serve_rank(&cat, &u, p, K, true));
        }
        direct.push(us(t));
        let t = Instant::now();
        if let Err(e) = server.call(serve::request(i, p, K, None)) {
            errors.push(format!("concurrency-1 request: {e}"));
        }
        served.push(us(t));
    }
    let server_edge = H_TOTAL.snapshot().delta_since(&total_base).quantile_ns(0.5);
    if let Err(e) = checks::check_same_bucket((quantile(&served, 0.5) * 1e3) as u64, server_edge) {
        errors.push(format!("request medians disagree: {e}"));
    }
    report.put(
        "serve.overhead_us",
        quantile(&served, 0.5) - quantile(&direct, 0.5),
        "us",
    );
    // The serve workload's queue: four requests in flight.
    let queue_base = H_QUEUE_WAIT.snapshot();
    let mut users = 0..400;
    let loop_result = serve::in_flight(
        &server,
        &src.prefixes,
        serve::IN_FLIGHT,
        || users.next(),
        |_, result, _| {
            if let Err(e) = result {
                errors.push(format!("in-flight request: {e}"));
            }
        },
    );
    errors.extend(loop_result.err());
    let wait = H_QUEUE_WAIT.snapshot().delta_since(&queue_base);
    report.put("serve.queue_wait_us", wait.mean_ns() / 1e3, "us");
    pmm_obs::set_enabled(false);

    // WAL appends (fsynced), then a fold of those items and the first
    // request after it, under the default deadline.
    let dir = serve::scratch_dir("suite-wal");
    match Wal::open(&dir) {
        Ok(mut wal) => {
            let appends: Vec<f64> = items
                .iter()
                .map(|item| {
                    let t = Instant::now();
                    if !matches!(wal.append(item), Ok(true)) {
                        errors.push("suite WAL append not acknowledged".into());
                    }
                    us(t)
                })
                .collect();
            report.put("ingest.wal_append_us", fast_mean(&appends), "us");
        }
        Err(e) => errors.push(format!("suite WAL: {e}")),
    }
    serve::remove_scratch(&dir);
    server.ingest(items.clone());
    let mut union = (*src.dataset).clone();
    union.items.extend(items);
    let t = Instant::now();
    server.fold_delta(serve::factory(Arc::new(union), model_seed));
    report.put("serve.fold_ms", ms(t), "ms");
    let t = Instant::now();
    let first = server.call(serve::request(1, &src.prefixes[1], K, None));
    report.put("serve.first_after_fold_ms", ms(t), "ms");
    std::hint::black_box(first.ok());
    server.shutdown();
}

/// Runs every layer measurement, in a fixed order.
pub fn run(seed: u64, report: &mut Report, errors: &mut Vec<String>) {
    training(seed, report, errors);
    serving(seed, report, errors);
}
