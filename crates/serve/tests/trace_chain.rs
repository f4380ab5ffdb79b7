//! A served request's trace events must reconstruct into one causal
//! chain: the TraceId minted at enqueue rides the job through every
//! stage, and the buffered events — filtered by that id — come back
//! contiguous, ordered, and complete.
//!
//! The event ring and the obs enable flag are process globals, so this
//! lives in its own integration-test binary with a single `#[test]`.

use pmm_baselines::Popularity;
use pmm_serve::{BreakerConfig, PmmEngine, Request, Server, ServerConfig, Tier};
use pmm_trace::{ring, TraceEvent};
use pmmrec::{PmmRec, PmmRecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

fn model(ds: &pmm_data::dataset::Dataset) -> PmmRec {
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
    PmmRec::new(cfg, ds, &mut StdRng::seed_from_u64(7))
}

#[test]
fn served_request_events_reconstruct_one_causal_chain() {
    pmm_obs::set_enabled(true);
    ring::clear();

    let ds = dataset();
    let popularity = Popularity::from_sequences(ds.items.len(), &ds.sequences);
    let ds_f = ds.clone();
    let server = Server::start(
        ServerConfig {
            workers: Some(1),
            deadline: Duration::from_secs(60),
            breaker: BreakerConfig { window: 4, trip_failures: 1, cooldown_denials: 1000 },
            ..ServerConfig::default()
        },
        move || PmmEngine::new(model(&ds_f)),
        popularity,
    );

    let handle = server
        .submit(Request { user: 1, prefix: vec![0, 1, 2], k: 5, exclude_seen: true, deadline: None })
        .expect("healthy submit is accepted");
    let trace = handle.trace;
    let resp = handle.wait().expect("healthy request serves");
    assert_eq!(resp.trace, trace, "response carries the handle's trace id");
    assert_eq!(resp.tier, Tier::Full);
    server.shutdown();

    // Reconstruct: filter by trace id, order by seq. Ring order is
    // push order, and the submit-side enqueue event races the worker's
    // first events, so seq — not arrival — carries the causal order.
    let mut chain: Vec<TraceEvent> =
        ring::snapshot().into_iter().filter(|e| e.trace == trace).collect();
    chain.sort_by_key(|e| e.seq);
    assert!(!chain.is_empty(), "the request left trace events");

    // One contiguous chain, starting at the submit-side enqueue event.
    let seqs: Vec<u32> = chain.iter().map(|e| e.seq).collect();
    let want: Vec<u32> = (0..chain.len() as u32).collect();
    assert_eq!(seqs, want, "sequence numbers are contiguous from 0");

    let stages: Vec<&str> = chain.iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        vec![
            "enqueue",
            "queue_wait",
            "tier",
            "encode",
            "user_encode",
            "rank",
            "respond",
            "request"
        ],
        "a healthy full-tier request walks every stage exactly once",
    );
    assert_eq!(chain[0].outcome, "accepted");
    assert!(chain[0].detail.starts_with("depth="), "enqueue records the queue depth");
    assert_eq!(chain[2].detail, Tier::Full.label(), "the attempted rung is recorded");
    let respond = &chain[6];
    assert_eq!(respond.outcome, "ok");
    assert_eq!(respond.detail, Tier::Full.label(), "the reply is tier-tagged");

    // Timed stages carry durations; the worker-side chain is causally
    // ordered in time. Excluded: enqueue (submitter clock), queue_wait
    // (start backdated by its duration), and the trailing request
    // event (emitted last, started at handler entry).
    for e in [&chain[3], &chain[4], &chain[5], &chain[7]] {
        assert!(e.dur_ns > 0, "{} records a duration", e.stage);
    }
    assert!(
        chain[2..6].windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
        "worker events are time-ordered: {chain:#?}",
    );
    // The request event spans its stages: it starts no later than the
    // encode stage and lasts at least as long as encode + rank.
    let request = &chain[7];
    assert!(request.start_ns <= chain[3].start_ns);
    assert!(request.dur_ns >= chain[3].dur_ns + chain[5].dur_ns);

    pmm_obs::set_enabled(false);
}
