//! `serve` and `serve_ingest`: the supervised server over the fused
//! Paper-scale source catalogue, driven from one client thread.

use crate::checks;
use crate::stats::Recorder;
use crate::{Outcome, Setup, Trace};
use pmm_baselines::Popularity;
use pmm_data::dataset::Dataset;
use pmm_data::registry::{build_dataset, fused_sources, Scale, TARGETS};
use pmm_data::split::SplitDataset;
use pmm_data::world::{Item, World, WorldConfig};
use pmm_ingest::{encode_item, replay, Wal};
use pmm_serve::server::ResponseHandle;
use pmm_serve::{PmmEngine, Request, Response, ServeError, Server, ServerConfig};
use pmmrec::{PmmRec, PmmRecConfig, Recommendation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items per answer.
pub const K: usize = 10;
/// `serve`: requests one client keeps in flight.
pub const IN_FLIGHT: usize = 4;
/// `serve`: a round is [`BLOCKS`] blocks of [`BLOCK`] completions, each
/// block timed as one part.
pub const BLOCK: usize = 250;
pub const BLOCKS: usize = 4;
/// `serve_ingest`: a round is a fold followed by one request, then
/// [`INGESTS`] times one new item and [`PER_INGEST`] requests, 1,009
/// requests in all, timed in parts of [`INGESTS_PER_PART`] ingests (252
/// requests). The first request after an ingest encodes the new item:
/// with 12 of them in a round, more than one request in a hundred pays
/// for a write, so the 99th percentile is the latency of such a read
/// rather than of the host's rarest stalls.
pub const INGESTS: usize = 12;
pub const PER_INGEST: usize = 84;
pub const INGESTS_PER_PART: usize = 3;
/// Deadline for set-up and check requests that must not be cut short.
const PATIENT: Duration = Duration::from_secs(30);

/// The fused source world a seed generates: dataset (items and
/// sequences) and the held-out prefixes requests are drawn from.
pub struct Source {
    pub dataset: Arc<Dataset>,
    pub prefixes: Vec<Vec<usize>>,
    pub popularity: Popularity,
}

pub fn source(seed: u64) -> Source {
    let world = World::new(WorldConfig::default());
    let split = SplitDataset::new(fused_sources(&world, Scale::Paper, seed));
    let popularity = Popularity::from_sequences(split.dataset.items.len(), &split.train);
    Source {
        prefixes: split.test.iter().map(|c| c.prefix.clone()).collect(),
        dataset: Arc::new(split.dataset),
        popularity,
    }
}

/// New catalogue items: every Paper-scale target dataset's items, in a
/// seeded order.
pub fn target_items(seed: u64) -> Vec<Item> {
    let world = World::new(WorldConfig::default());
    let mut items: Vec<Item> = TARGETS
        .iter()
        .flat_map(|&id| build_dataset(&world, id, Scale::Paper, seed).items)
        .collect();
    items.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x17E5));
    items
}

/// One serving replica: default PMMRec geometry, weights fixed by the
/// seed (no ID embeddings, so any catalogue gets the same weights).
pub fn replica(dataset: &Dataset, model_seed: u64) -> PmmRec {
    PmmRec::new(
        PmmRecConfig::default(),
        dataset,
        &mut StdRng::seed_from_u64(model_seed),
    )
}

pub fn factory(
    dataset: Arc<Dataset>,
    model_seed: u64,
) -> impl Fn() -> PmmEngine + Send + Sync + 'static {
    move || PmmEngine::new(replica(&dataset, model_seed))
}

/// One worker, everything else at its default (deadline 250 ms).
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    }
}

pub fn request(user: usize, prefix: &[usize], k: usize, deadline: Option<Duration>) -> Request {
    Request {
        user: user as u64,
        prefix: prefix.to_vec(),
        k,
        exclude_seen: true,
        deadline,
    }
}

/// Serves one request that must succeed however long it takes (the
/// catalogue warm-up).
pub fn warm(server: &Server<PmmEngine>, prefix: &[usize]) -> Result<(), String> {
    server
        .call(request(0, prefix, K, Some(PATIENT)))
        .map(drop)
        .map_err(|e| format!("warm-up request failed: {e}"))
}

/// Keeps `depth` requests in flight from this thread: `next` names the
/// user of each new request (`None`: submit no more), and `done` gets
/// each request's user, result and milliseconds from submission, in
/// submission order. Returns the refusal that stopped submission, if
/// any, after the requests in flight have been answered.
pub fn in_flight(
    server: &Server<PmmEngine>,
    prefixes: &[Vec<usize>],
    depth: usize,
    mut next: impl FnMut() -> Option<usize>,
    mut done: impl FnMut(usize, Result<Response, ServeError>, f64),
) -> Result<(), String> {
    let mut queue: VecDeque<(ResponseHandle, Instant, usize)> = VecDeque::new();
    let mut refused = None;
    loop {
        while refused.is_none() && queue.len() < depth {
            let Some(user) = next() else {
                break;
            };
            let sent = Instant::now();
            match server.submit(request(user, &prefixes[user], K, None)) {
                Ok(h) => queue.push_back((h, sent, user)),
                Err(e) => refused = Some(format!("submit refused: {e}")),
            }
        }
        let Some((handle, sent, user)) = queue.pop_front() else {
            break;
        };
        let result = handle.wait();
        done(user, result, sent.elapsed().as_secs_f64() * 1e3);
    }
    refused.map_or(Ok(()), Err)
}

/// A scratch directory inside the working directory, fresh.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Removes a scratch directory and, when nothing else is left in it,
/// the scratch root.
pub fn remove_scratch(dir: &PathBuf) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir(".bench_scratch").ok();
}

/// Answers seen, keyed by (user, catalogue size when served). A key
/// served twice must get the same answer; each distinct answer is
/// checked against the reference after the run.
#[derive(Default)]
struct Answers {
    first: HashMap<(usize, usize), Vec<Recommendation>>,
    errors: Vec<String>,
}

impl Answers {
    fn record(&mut self, user: usize, n: usize, items: Vec<Recommendation>) {
        match self.first.get(&(user, n)) {
            Some(prev) if *prev != items => {
                if self.errors.len() < 5 {
                    self.errors.push(format!(
                        "user {user}: two different answers over the same {n}-item catalogue"
                    ));
                }
            }
            Some(_) => {}
            None => {
                self.first.insert((user, n), items);
            }
        }
    }

    /// Checks every distinct answer against f64 dot products over a
    /// separately built replica's `item_representations()` and
    /// `encode_prefixes`.
    fn check(mut self, reference: &PmmRec, prefixes: &[Vec<usize>]) -> Vec<String> {
        let reps = reference.item_representations();
        let (total, d) = (reps.shape()[0], reps.shape()[1]);
        let mut users: Vec<usize> = self.first.keys().map(|&(u, _)| u).collect();
        users.sort_unstable();
        users.dedup();
        let mut scores: HashMap<usize, Vec<f64>> = HashMap::new();
        for chunk in users.chunks(64) {
            let ps: Vec<&[usize]> = chunk.iter().map(|&u| prefixes[u].as_slice()).collect();
            let enc = reference.encode_prefixes(&ps);
            for (row, &u) in chunk.iter().enumerate() {
                let user = &enc.data()[row * d..(row + 1) * d];
                scores.insert(u, checks::reference_scores(user, reps.data(), d, total));
            }
        }
        let mut bad = 0usize;
        for ((u, n), items) in &self.first {
            if *n > total {
                self.errors.push(format!(
                    "user {u} was served over {n} items, reference has {total}"
                ));
                continue;
            }
            if let Err(e) = checks::check_served(items, &prefixes[*u], K, &scores[u], *n) {
                bad += 1;
                if bad <= 5 {
                    self.errors.push(format!("user {u} over {n} items: {e}"));
                }
            }
        }
        if bad > 5 {
            self.errors
                .push(format!("{bad} answers in all differ from the reference"));
        }
        self.errors
    }
}

pub fn run_serve(seed: u64, seconds: f64, trace: &mut Trace, setup: &mut Setup) -> Outcome {
    let t = Instant::now();
    let src = source(seed);
    setup.data_ms = t.elapsed().as_secs_f64() * 1e3;
    let model_seed = seed ^ 0x5EED;
    let server = Server::start(
        server_config(),
        factory(Arc::clone(&src.dataset), model_seed),
        src.popularity.clone(),
    );
    let mut errors: Vec<String> = warm(&server, &src.prefixes[0]).err().into_iter().collect();
    let n = src.dataset.items.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E);
    setup.done();

    let mut answers = Answers::default();
    let round = BLOCK * BLOCKS;
    let mut rec = Recorder::new(&[BLOCKS]);
    let (mut submitted, mut completed, mut failed) = (0usize, 0usize, 0u64);
    let started = Instant::now();
    let mut block_start = started;
    let mut block_lat = Vec::with_capacity(BLOCK);
    let mut traced = trace.round_begin(0);
    let mut round_ops = 0u64;
    let next = || {
        // A new round is only begun while there is time left, so every
        // run serves whole rounds.
        if submitted % round == 0 && submitted > 0 && started.elapsed().as_secs_f64() >= seconds {
            return None;
        }
        submitted += 1;
        Some(rng.random_range(0..src.prefixes.len()))
    };
    let done = |user: usize, result: Result<Response, ServeError>, ms: f64| {
        block_lat.push(ms);
        completed += 1;
        match result {
            Ok(resp) => {
                round_ops += 1;
                answers.record(user, n, resp.items);
            }
            Err(e) => {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(format!("request failed: {e}"));
                }
            }
        }
        if block_lat.len() == BLOCK {
            let now = Instant::now();
            rec.add(traced, 0, (now - block_start).as_secs_f64(), &block_lat);
            block_lat.clear();
            block_start = now;
        }
        if completed % round == 0 {
            rec.end_round(traced);
            trace.round_end(traced, round_ops);
            round_ops = 0;
            traced = trace.round_begin(completed / round);
        }
    };
    let refused = in_flight(&server, &src.prefixes, IN_FLIGHT, next, done);
    errors.extend(refused.err());
    trace.stop();
    server.shutdown();

    errors.extend(answers.check(&replica(&src.dataset, model_seed), &src.prefixes));
    let attempted = completed as u64;
    let ops_per_round = (attempted - failed) as f64 / (attempted as f64 / round as f64);
    Outcome {
        rec,
        ops_per_round,
        attempted,
        failed,
        errors,
    }
}

pub fn run_ingest(seed: u64, seconds: f64, trace: &mut Trace, setup: &mut Setup) -> Outcome {
    let t = Instant::now();
    let src = source(seed);
    let pool = target_items(seed);
    setup.data_ms = t.elapsed().as_secs_f64() * 1e3;
    let model_seed = seed ^ 0x5EED;
    let base = Arc::clone(&src.dataset);
    let base_len = base.items.len();
    let server = Server::start(
        server_config(),
        factory(Arc::clone(&base), model_seed),
        src.popularity.clone(),
    );
    let dir = scratch_dir("wal");
    let mut errors = Vec::new();
    let mut wal = match Wal::open(&dir) {
        Ok(w) => Some(w),
        Err(e) => {
            errors.push(format!("cannot open the WAL at {}: {e}", dir.display()));
            None
        }
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A6E);
    setup.done();

    let mut answers = Answers::default();
    // Part kinds: fold plus the first request after it; a group of
    // ingests (WAL append and Server::ingest) with the requests after
    // each.
    let mut rec = Recorder::new(&[1, INGESTS / INGESTS_PER_PART]);
    let mut acked: Vec<Vec<u8>> = Vec::new();
    let mut ingested: Vec<Item> = Vec::new();
    let (mut rounds, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let started = Instant::now();
    while wal.is_some()
        && (rounds == 0 || started.elapsed().as_secs_f64() < seconds)
        && ingested.len() + INGESTS <= pool.len()
    {
        let traced = trace.round_begin(rounds);
        let mut round_ops = 0u64;
        let mut ask = |n: usize, answers: &mut Answers, errors: &mut Vec<String>, first: bool| {
            let user = rng.random_range(0..src.prefixes.len());
            let sent = Instant::now();
            let result = server.call(request(user, &src.prefixes[user], K, None));
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            attempted += 1;
            match result {
                Ok(resp) => {
                    round_ops += 1;
                    answers.record(user, n, resp.items);
                }
                Err(e) => {
                    failed += 1;
                    // The known fault: the first request after a fold
                    // re-encodes the whole catalogue inside its own
                    // deadline. Anything else is unexpected.
                    let known =
                        first && matches!(e, ServeError::DeadlineExceeded { stage: "encode" });
                    if !known && errors.len() < 5 {
                        errors.push(format!("request in round {rounds} failed: {e}"));
                    }
                }
            }
            ms
        };
        // Fold everything ingested so far into a cold-built base.
        let t = Instant::now();
        let mut union = (*base).clone();
        union.items.extend(ingested.iter().cloned());
        server.fold_delta(factory(Arc::new(union), model_seed));
        let ms = ask(base_len + ingested.len(), &mut answers, &mut errors, true);
        rec.add(traced, 0, t.elapsed().as_secs_f64(), &[ms]);
        for _ in 0..INGESTS / INGESTS_PER_PART {
            let t = Instant::now();
            let mut lat = Vec::with_capacity(INGESTS_PER_PART * PER_INGEST);
            for _ in 0..INGESTS_PER_PART {
                let item = pool[ingested.len()].clone();
                match wal.as_mut().map(|w| w.append(&item)) {
                    Some(Ok(true)) => acked.push(encode_item(&item)),
                    other => errors.push(format!(
                        "WAL append of item {} not acknowledged: {other:?}",
                        ingested.len()
                    )),
                }
                server.ingest(vec![item.clone()]);
                ingested.push(item);
                let n = base_len + ingested.len();
                lat.extend((0..PER_INGEST).map(|_| ask(n, &mut answers, &mut errors, false)));
            }
            rec.add(traced, 1, t.elapsed().as_secs_f64(), &lat);
        }
        rec.end_round(traced);
        trace.round_end(traced, round_ops);
        rounds += 1;
    }
    trace.stop();

    // The whole catalogue, as served: base plus every item ingested.
    let all = server.call(Request {
        user: 0,
        prefix: src.prefixes[0].clone(),
        k: usize::MAX,
        exclude_seen: false,
        deadline: Some(PATIENT),
    });
    match all {
        Ok(resp) if resp.items.len() == base_len + ingested.len() => {}
        Ok(resp) => errors.push(format!(
            "final catalogue serves {} items, base {base_len} + ingested {}",
            resp.items.len(),
            ingested.len()
        )),
        Err(e) => errors.push(format!("final catalogue request failed: {e}")),
    }
    server.shutdown();
    drop(wal);
    match replay(&dir) {
        Ok(r) => {
            let replayed: Vec<Vec<u8>> = r.items.iter().map(encode_item).collect();
            if let Err(e) = checks::check_ledger(&acked, &replayed) {
                errors.push(format!("WAL replay: {e}"));
            }
        }
        Err(e) => errors.push(format!("WAL replay failed: {e}")),
    }
    remove_scratch(&dir);

    let mut reference = replica(&base, model_seed);
    reference.ingest_items(ingested);
    errors.extend(answers.check(&reference, &src.prefixes));
    let ops_per_round = (attempted - failed) as f64 / rounds.max(1) as f64;
    Outcome {
        rec,
        ops_per_round,
        attempted,
        failed,
        errors,
    }
}
