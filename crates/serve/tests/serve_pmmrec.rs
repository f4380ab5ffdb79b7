//! End-to-end serving over the real model: served responses must be
//! bit-identical to direct `recommend_top_k` calls at every worker
//! count over generated inputs, injected encoder faults must walk the ladder, a worker
//! panic mid-request must resolve through supervision, and a snapshot
//! hot-swap under load must not shed a request.

use pmm_baselines::Popularity;
use pmm_serve::{
    BreakerConfig, Component, PmmEngine, Request, Server, ServerConfig, SupervisorConfig, Tier,
};
use pmmrec::{PmmRec, PmmRecConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn dataset() -> pmm_data::dataset::Dataset {
    let world = pmm_data::world::World::new(pmm_data::world::WorldConfig::default());
    pmm_data::registry::build_dataset(
        &world,
        pmm_data::registry::DatasetId::HmClothes,
        pmm_data::Scale::Tiny,
        42,
    )
}

fn model_seeded(ds: &pmm_data::dataset::Dataset, seed: u64) -> PmmRec {
    let cfg = PmmRecConfig {
        d: 16,
        heads: 2,
        text_layers: 1,
        vision_layers: 1,
        fusion_layers: 1,
        user_layers: 1,
        dropout: 0.0,
        ..Default::default()
    };
    // Same seed -> bit-identical weights in every replica.
    PmmRec::new(cfg, ds, &mut StdRng::seed_from_u64(seed))
}

fn model(ds: &pmm_data::dataset::Dataset) -> PmmRec {
    model_seeded(ds, 7)
}

fn server_cfg(workers: usize) -> ServerConfig {
    ServerConfig {
        workers: Some(workers),
        deadline: Duration::from_secs(60),
        breaker: BreakerConfig { window: 4, trip_failures: 1, cooldown_denials: 1000 },
        ..ServerConfig::default()
    }
}

fn popularity(ds: &pmm_data::dataset::Dataset) -> Popularity {
    Popularity::from_sequences(ds.items.len(), &ds.sequences)
}

/// One served-vs-direct input: prefix, k, exclude_seen.
type Case = (Vec<usize>, usize, bool);

/// Served-vs-direct inputs: the hand-picked prefixes plus one generated
/// case per `k` in `1..=n + 3`, drawn from a fixed seed so a failure
/// replays. Generated prefixes repeat items and run past `max_len`, and
/// `exclude_seen` goes both ways.
fn cases(n: usize, max_len: usize) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x5E2E_D7A1);
    let mut cases: Vec<Case> = [vec![0, 1, 2], vec![3], vec![1, 4, 2, 0], vec![5, 5]]
        .into_iter()
        .map(|p| (p, 5, true))
        .collect();
    for k in 1..=n + 3 {
        let len = rng.random_range(1..=2 * max_len);
        let mut prefix: Vec<usize> = Vec::with_capacity(len);
        while prefix.len() < len {
            let item = if !prefix.is_empty() && rng.random_bool(0.3) {
                prefix[rng.random_range(0..prefix.len())]
            } else {
                rng.random_range(0..n)
            };
            prefix.push(item);
        }
        cases.push((prefix, k, rng.random_bool(0.5)));
    }
    // The shapes the generator exists to cover must actually occur.
    assert!(cases.iter().any(|(p, ..)| p.len() > max_len), "no prefix past max_len");
    assert!(
        cases.iter().any(|(p, ..)| (1..p.len()).any(|i| p[..i].contains(&p[i]))),
        "no prefix with a repeated item"
    );
    assert!(cases.iter().any(|c| !c.2), "exclude_seen=false never drawn");
    cases
}

#[test]
fn served_topk_is_bit_identical_to_direct_calls_at_every_worker_count() {
    let ds = dataset();
    let reference = model(&ds);
    let cases = cases(ds.items.len(), reference.config().max_len);
    let direct: Vec<Vec<pmmrec::Recommendation>> = cases
        .iter()
        .map(|(p, k, exclude)| reference.recommend_top_k(p, *k, *exclude).unwrap())
        .collect();

    for workers in [1usize, 2, 4] {
        let ds_f = ds.clone();
        let server = Server::start(
            server_cfg(workers),
            move || PmmEngine::new(model(&ds_f)),
            popularity(&ds),
        );
        for ((p, k, exclude), want) in cases.iter().zip(&direct) {
            let resp = server.call(Request {
                user: 1,
                prefix: p.clone(),
                k: *k,
                exclude_seen: *exclude,
                deadline: None,
            })
            .unwrap();
            assert_eq!(resp.tier, Tier::Full, "workers={workers}");
            assert_eq!(&resp.items, want, "workers={workers} prefix={p:?} k={k} exclude={exclude}");
        }
        server.shutdown();
    }
}

#[test]
fn int8_engines_serve_the_quantized_rank_bit_identically_at_every_worker_count() {
    let ds = dataset();
    let reference = model(&ds);
    let cases = cases(ds.items.len(), reference.config().max_len);
    let direct: Vec<Vec<pmmrec::Recommendation>> = cases
        .iter()
        .map(|(p, k, exclude)| {
            reference.recommend_top_k_with(pmmrec::Precision::Int8, p, *k, *exclude).unwrap()
        })
        .collect();
    // The quantized path must actually differ in score somewhere from
    // f32, otherwise this test would pass with the knob unwired.
    let f32_scores: Vec<Vec<pmmrec::Recommendation>> = cases
        .iter()
        .map(|(p, k, exclude)| reference.recommend_top_k(p, *k, *exclude).unwrap())
        .collect();
    assert_ne!(direct, f32_scores, "int8 scores should not be byte-copies of f32");

    for workers in [1usize, 2, 4] {
        let ds_f = ds.clone();
        let server = Server::start(
            server_cfg(workers),
            move || PmmEngine::with_precision(model(&ds_f), pmmrec::Precision::Int8),
            popularity(&ds),
        );
        for ((p, k, exclude), want) in cases.iter().zip(&direct) {
            let resp = server
                .call(Request {
                    user: 1,
                    prefix: p.clone(),
                    k: *k,
                    exclude_seen: *exclude,
                    deadline: None,
                })
                .unwrap();
            assert_eq!(resp.tier, Tier::Full, "workers={workers}");
            assert_eq!(&resp.items, want, "workers={workers} prefix={p:?} k={k} exclude={exclude}");
        }
        server.shutdown();
    }
}

#[test]
fn int8_engine_degraded_tiers_rank_through_the_quantized_path() {
    let ds = dataset();
    // Full rung errs on the text gate -> text breaker opens -> the
    // vision-only rung serves, still through the int8 catalogue.
    pmm_fault::install(pmm_fault::FaultPlan::parse("err@0").unwrap());
    let reference = model(&ds);
    let ds_f = ds.clone();
    let server = Server::start(
        server_cfg(1),
        move || PmmEngine::with_precision(model(&ds_f), pmmrec::Precision::Int8),
        popularity(&ds),
    );
    let resp = server.call(Request::new(1, vec![0, 1, 2], 5)).unwrap();
    assert_eq!(resp.tier, Tier::VisionOnly);
    let qcat = reference.serve_catalog_q(pmmrec::Modality::VisionOnly).unwrap();
    let cat = reference.serve_catalog(pmmrec::Modality::VisionOnly).unwrap();
    let user = reference.serve_user_vector(&cat, &[0, 1, 2]).unwrap();
    let want = reference.serve_rank_q(&qcat, &user, &[0, 1, 2], 5, false);
    assert_eq!(resp.items, want, "degraded rung must use the quantized catalogue");
    server.shutdown();
}

#[test]
fn injected_encoder_error_degrades_to_a_single_modality_tier() {
    let ds = dataset();
    pmm_fault::install(pmm_fault::FaultPlan::parse("err@0").unwrap());
    let ds_f = ds.clone();
    let server = Server::start(
        server_cfg(1),
        move || PmmEngine::new(model(&ds_f)),
        popularity(&ds),
    );
    // Full rung errs on the text gate -> text breaker opens ->
    // TextOnly denied -> VisionOnly serves.
    let resp = server.call(Request::new(1, vec![0, 1, 2], 5)).unwrap();
    assert_eq!(resp.tier, Tier::VisionOnly);
    assert!(resp.items.iter().all(|r| r.score.is_finite()));
    assert_eq!(
        server.breaker_state(Component::TextEncoder),
        pmm_serve::BreakerState::Open
    );
    // The vision-rung answer matches the model's own vision-only path.
    let reference = model(&ds);
    let cat = reference.serve_catalog(pmmrec::Modality::VisionOnly).unwrap();
    let user = reference.serve_user_vector(&cat, &[0, 1, 2]).unwrap();
    let want = reference.serve_rank(&cat, &user, &[0, 1, 2], 5, false);
    pmm_fault::clear();
    assert_eq!(resp.items, want);
}

#[test]
fn panic_mid_request_resolves_and_the_respawned_worker_is_bit_identical() {
    let ds = dataset();
    let reference = model(&ds);
    let prefix = vec![0, 1, 2];
    let want = reference.recommend_top_k(&prefix, 5, true).unwrap();
    // The first request panics its worker mid-request.
    pmm_fault::install(pmm_fault::FaultPlan::parse("panic@0").unwrap());
    let ds_f = ds.clone();
    let server = Server::start(
        ServerConfig {
            supervisor: SupervisorConfig {
                restart_backoff: Duration::from_millis(1),
                watchdog_interval: Duration::from_millis(2),
                ..SupervisorConfig::default()
            },
            ..server_cfg(1)
        },
        move || PmmEngine::new(model(&ds_f)),
        popularity(&ds),
    );
    // The panicking request still resolves through the ladder: the
    // retry lands on the respawned worker and serves the full tier,
    // bit-identical to the direct call.
    let resp = server.call(Request {
        user: 1,
        prefix: prefix.clone(),
        k: 5,
        exclude_seen: true,
        deadline: None,
    })
    .unwrap();
    assert_eq!(resp.tier, Tier::Full, "the retry reaches the model path");
    assert_eq!(resp.items, want, "the retried answer is bit-identical to a direct call");
    // The worker was respawned within the restart budget...
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.worker_restarts() != vec![1] && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.worker_restarts(), vec![1], "one respawn, within budget");
    assert!(!server.degraded());
    // ...and subsequent requests are bit-identical to direct calls.
    let after = server.call(Request {
        user: 2,
        prefix: prefix.clone(),
        k: 5,
        exclude_seen: true,
        deadline: None,
    })
    .unwrap();
    pmm_fault::clear();
    assert_eq!(after.tier, Tier::Full);
    assert_eq!(after.items, want);
}

#[test]
fn snapshot_swap_under_load_sheds_nothing_and_tags_epochs() {
    let ds = dataset();
    let prefix = vec![0, 1, 2];
    let old_want = model_seeded(&ds, 7).recommend_top_k(&prefix, 5, true).unwrap();
    let new_want = model_seeded(&ds, 11).recommend_top_k(&prefix, 5, true).unwrap();
    assert_ne!(old_want, new_want, "the two snapshots must be distinguishable");

    let ds_old = ds.clone();
    let server = std::sync::Arc::new(Server::start(
        server_cfg(2),
        move || PmmEngine::new(model_seeded(&ds_old, 7)),
        popularity(&ds),
    ));
    let request = || Request {
        user: 1,
        prefix: prefix.clone(),
        k: 5,
        exclude_seen: true,
        deadline: None,
    };
    // Pre-swap: epoch 0, old snapshot's answer.
    let before = server.call(request()).unwrap();
    assert_eq!((before.epoch, &before.items), (0, &old_want));

    // Load the queue, then swap mid-backlog from another thread while
    // requests keep flowing.
    let handles: Vec<_> = (0..12).map(|_| server.submit(request()).unwrap()).collect();
    let swapper = {
        let server = std::sync::Arc::clone(&server);
        let ds_new = ds.clone();
        std::thread::spawn(move || {
            server.swap_snapshot(move || PmmEngine::new(model_seeded(&ds_new, 11)))
        })
    };
    let late: Vec<_> = (0..4).map(|_| server.submit(request()).unwrap()).collect();

    // Zero swap-attributable sheds: every accepted request resolves,
    // and every response is attributable to exactly one snapshot.
    for h in handles.into_iter().chain(late) {
        let resp = h.wait().expect("no request is shed or dropped across the swap");
        assert_eq!(resp.tier, Tier::Full);
        match resp.epoch {
            0 => assert_eq!(resp.items, old_want, "epoch-0 answers come from the old engine"),
            1 => assert_eq!(resp.items, new_want, "epoch-1 answers come from the new engine"),
            e => panic!("impossible epoch {e}"),
        }
    }
    let report = swapper.join().expect("swap thread");
    assert_eq!(report.epoch, 1);
    assert_eq!(report.workers, 2, "every worker adopted the new snapshot");
    assert_eq!(report.given_up, 0);

    // Post-flip: every answer carries the new epoch and snapshot.
    let after = server.call(request()).unwrap();
    assert_eq!((after.epoch, &after.items), (1, &new_want));
}
