//! Kill-and-replay chaos harness for the crash-safe ingestion path.
//!
//! Two scenarios run by default, each proving one leg of the
//! durability contract:
//!
//! * `kill_and_replay` — items stream into the WAL while the
//!   injected `wal_corrupt@N` fault tears one append mid-frame; the
//!   writer is then dropped mid-stream (the crash) with a garbage
//!   half-frame appended to the live segment (the record the process
//!   died inside). Replay must recover **every acknowledged item
//!   exactly once, in order, bit-identical**, truncate each damaged
//!   tail (counted in `wal_truncated`, never a panic), and a second
//!   replay must find nothing left to repair.
//! * `ingest_under_load` — a live server over a truncated base
//!   catalog; the missing tail is WAL-appended, crash-replayed, and
//!   handed to [`Server::ingest`]. Served top-k answers over
//!   base + delta must be **bit-identical** to a cold server built
//!   over the full catalog, before *and* after
//!   [`Server::fold_delta`] retires the delta into a fresh snapshot
//!   epoch — with zero requests shed along the way.
//!
//! `--fault-plan SPEC` replaces the default scenarios with a single
//! custom `kill_and_replay`; `--no-replay` skips the recovery step so
//! acknowledged items are lost — which MUST fail the run. That pair
//! is the must-fail leg `scripts/verify.sh` uses to prove this gate
//! can actually reject a durability regression. The default run
//! writes its results to `BENCH_ingest.json`; a custom run only prints
//! them, so the recorded file always describes the clean scenarios.

use pmm_baselines::Popularity;
use pmm_bench::cli::Cli;
use pmm_bench::runner;
use pmm_data::dataset::Dataset;
use pmm_data::registry::{self, DatasetId, Scale};
use pmm_data::world::Item;
use pmm_ingest::{encode_item, fold, replay, Wal, WalConfig};
use pmm_obs::json::JsonObj;
use pmm_serve::{
    BreakerConfig, PmmEngine, Request, Response, Server, ServerConfig, SupervisorConfig,
};
use pmm_trace::{MetricsSnapshot, SloPolicy};
use pmmrec::{PmmRec, PmmRecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Small serving model, seeded identically per replica (the same
/// geometry `serve_load` drives).
fn model_cfg() -> PmmRecConfig {
    PmmRecConfig {
        d: 16,
        heads: 2,
        text_layers: 1,
        vision_layers: 1,
        fusion_layers: 1,
        user_layers: 1,
        dropout: 0.0,
        ..Default::default()
    }
}

fn engine_factory(
    ds: Arc<Dataset>,
    seed: u64,
) -> impl Fn() -> PmmEngine + Send + Sync + 'static {
    move || PmmEngine::new(PmmRec::new(model_cfg(), &ds, &mut StdRng::seed_from_u64(seed)))
}

/// One worker + a breaker that never trips: injected faults exercise
/// the ingestion machinery, not the ladder.
fn server_cfg() -> ServerConfig {
    ServerConfig {
        workers: Some(1),
        deadline: Duration::from_secs(10),
        breaker: BreakerConfig { window: 8, trip_failures: 1_000_000, cooldown_denials: 1_000_000 },
        supervisor: SupervisorConfig {
            restart_backoff: Duration::from_millis(2),
            watchdog_interval: Duration::from_millis(5),
            ..SupervisorConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A fresh, empty WAL directory for one scenario.
fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmm_ingest_chaos_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Byte-level fingerprint of an item — two items are "the same
/// record" iff their WAL encodings match bit for bit.
fn item_bytes(item: &Item) -> Vec<u8> {
    encode_item(item)
}

/// Blockingly serve one request and return the response; submit
/// errors and serve errors are scenario failures, not panics.
fn ask(server: &Server<PmmEngine>, prefix: &[usize], user: u64) -> Result<Response, String> {
    let req =
        Request { user, prefix: prefix.to_vec(), k: 10, exclude_seen: true, deadline: None };
    server
        .submit(req)
        .map_err(|e| format!("submit shed under ingest load: {e}"))?
        .wait()
        .map_err(|e| format!("request failed under ingest load: {e}"))
}

/// What one scenario produced, ready for the JSON report.
struct Outcome {
    name: &'static str,
    wall: Duration,
    window: MetricsSnapshot,
    detail: Vec<(&'static str, u64)>,
    slo_ok: bool,
    failures: Vec<String>,
}

/// Stream items into a WAL with injected corruption, crash the
/// writer mid-append, replay, and check the durability contract.
fn kill_and_replay(items: &[Item], plan: &str, no_replay: bool) -> Outcome {
    let started = Instant::now();
    let base = MetricsSnapshot::capture();
    let mut failures = Vec::new();
    let dir = wal_dir("kill");
    match pmm_fault::FaultPlan::parse(plan) {
        Ok(p) => pmm_fault::install(p),
        Err(e) => failures.push(format!("bad fault plan {plan:?}: {e}")),
    }

    // Acknowledged-items ledger: exactly the records append() fsynced.
    let mut acked: Vec<Vec<u8>> = Vec::new();
    match Wal::with_config(&dir, WalConfig { segment_bytes: 512 }) {
        Ok(mut wal) => {
            for item in items {
                match wal.append(item) {
                    Ok(true) => acked.push(item_bytes(item)),
                    Ok(false) => {} // torn by the injected fault: unacknowledged
                    Err(e) => failures.push(format!("append failed: {e}")),
                }
            }
            // The crash: the writer dies inside its next append,
            // leaving a garbage half-frame on the live segment. The
            // Wal handle is dropped without any clean shutdown.
            let seg = wal.current_segment().to_path_buf();
            let torn = std::fs::OpenOptions::new().append(true).open(&seg).and_then(|mut f| {
                f.write_all(&200u32.to_le_bytes())?;
                f.write_all(&[0xAB; 14])
            });
            if let Err(e) = torn {
                failures.push(format!("could not simulate the torn tail on {}: {e}", seg.display()));
            }
        }
        Err(e) => failures.push(format!("cannot open wal at {}: {e}", dir.display())),
    }
    let wal_fired = pmm_fault::fired_ingest();
    pmm_fault::clear();

    let mut recovered = 0u64;
    let mut truncated = 0u64;
    if no_replay {
        println!("  --no-replay: skipping recovery, acknowledged items are LOST");
        if !acked.is_empty() {
            failures.push(format!(
                "{} acknowledged item(s) lost without replay — the durability contract is void",
                acked.len()
            ));
        }
    } else {
        match replay(&dir) {
            Ok(r) => {
                recovered = r.items.len() as u64;
                truncated = r.truncated as u64;
                let got: Vec<Vec<u8>> = r.items.iter().map(item_bytes).collect();
                if got != acked {
                    failures.push(format!(
                        "replay recovered {} item(s), acknowledged {} — not the exact ledger",
                        got.len(),
                        acked.len()
                    ));
                }
                // One truncation per torn tail: each injected tear
                // rotates into its own segment, plus the crash frame.
                let want_truncated = wal_fired as usize + 1;
                if r.truncated != want_truncated {
                    failures.push(format!(
                        "replay truncated {} tail(s), expected {want_truncated} ({} injected + 1 crash)",
                        r.truncated, wal_fired
                    ));
                }
            }
            Err(e) => failures.push(format!("replay failed: {e}")),
        }
        // Idempotence: the first replay repaired the damage, so a
        // second pass recovers the same ledger with nothing to cut.
        match replay(&dir) {
            Ok(r2) => {
                if r2.truncated != 0 {
                    failures.push(format!("second replay still truncated {} tail(s)", r2.truncated));
                }
                if r2.items.iter().map(item_bytes).collect::<Vec<_>>() != acked {
                    failures.push("second replay diverged from the acknowledged ledger".into());
                }
            }
            Err(e) => failures.push(format!("second replay failed: {e}")),
        }
        match fold(&dir) {
            Ok(removed) => {
                if removed == 0 {
                    failures.push("fold retired no segments".into());
                }
                match replay(&dir) {
                    Ok(r3) if !r3.items.is_empty() => {
                        failures.push("items survived a fold".into())
                    }
                    Ok(_) => {}
                    Err(e) => failures.push(format!("post-fold replay failed: {e}")),
                }
            }
            Err(e) => failures.push(format!("fold failed: {e}")),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    Outcome {
        name: "kill_and_replay",
        wall: started.elapsed(),
        window: MetricsSnapshot::capture().delta_since(&base),
        detail: vec![
            ("appended", items.len() as u64),
            ("acknowledged", acked.len() as u64),
            ("torn_injected", wal_fired),
            ("recovered", recovered),
            ("truncated", truncated),
        ],
        slo_ok: true,
        failures,
    }
}

/// Serve over a truncated base while the missing tail arrives via
/// WAL → replay → [`Server::ingest`] → [`Server::fold_delta`];
/// every answer must match a cold build over the full catalog.
fn ingest_under_load(full: &Arc<Dataset>, prefixes: &[Vec<usize>], seed: u64) -> Outcome {
    let started = Instant::now();
    let base_snap = MetricsSnapshot::capture();
    let mut failures = Vec::new();
    pmm_fault::clear();

    let n = full.items.len();
    let delta: Vec<Item> = full.items[n - 6..].to_vec();
    let mut base = (**full).clone();
    base.items.truncate(n - 6);
    let base = Arc::new(base);

    // The missing tail takes the durable path: WAL-append, crash the
    // writer, recover by replay. Only recovered items are ingested.
    let dir = wal_dir("load");
    let mut durable = 0usize;
    match Wal::open(&dir) {
        Ok(mut wal) => {
            for item in &delta {
                match wal.append(item) {
                    Ok(true) => durable += 1,
                    Ok(false) => failures.push("unexpected torn append in a clean stream".into()),
                    Err(e) => failures.push(format!("append failed: {e}")),
                }
            }
        }
        Err(e) => failures.push(format!("cannot open wal at {}: {e}", dir.display())),
    }
    let replayed = match replay(&dir) {
        Ok(r) => {
            if r.items.len() != durable {
                failures.push(format!(
                    "replay recovered {} of {durable} durable item(s)",
                    r.items.len()
                ));
            }
            r.items
        }
        Err(e) => {
            failures.push(format!("replay failed: {e}"));
            Vec::new()
        }
    };

    let popularity = || Popularity::from_sequences(full.items.len(), &full.sequences);
    let cold = Server::start(server_cfg(), engine_factory(Arc::clone(full), seed), popularity());
    let live = Server::start(server_cfg(), engine_factory(Arc::clone(&base), seed), popularity());

    // Phase 1: the base catalog serves while the delta is still in
    // flight (answers legitimately differ from the cold union here).
    for (i, p) in prefixes.iter().enumerate() {
        if let Err(e) = ask(&live, p, i as u64) {
            failures.push(format!("pre-ingest: {e}"));
        }
    }

    // Phase 2: recovered items go live without a rebuild; every
    // answer must now be bit-identical to the cold union build.
    live.ingest(replayed);
    let mut delta_matches = 0u64;
    for (i, p) in prefixes.iter().enumerate() {
        match (ask(&live, p, 100 + i as u64), ask(&cold, p, 100 + i as u64)) {
            (Ok(a), Ok(b)) => {
                if a.items == b.items {
                    delta_matches += 1;
                } else {
                    failures.push(format!("delta-serving answer diverged from cold build on prefix {i}"));
                }
                if a.epoch != 0 {
                    failures.push(format!("delta answer claims epoch {} before any fold", a.epoch));
                }
            }
            (Err(e), _) | (_, Err(e)) => failures.push(format!("post-ingest: {e}")),
        }
    }

    // Phase 3: fold the delta into a new snapshot epoch; the WAL
    // segments retire only after the new snapshot is live.
    let report = live.fold_delta(engine_factory(Arc::clone(full), seed));
    if report.epoch != 1 {
        failures.push(format!("fold published epoch {}, expected 1", report.epoch));
    }
    if live.delta_len() != 0 {
        failures.push(format!("{} delta item(s) survived the fold", live.delta_len()));
    }
    match fold(&dir) {
        Ok(_) => {}
        Err(e) => failures.push(format!("wal fold failed: {e}")),
    }
    let mut fold_matches = 0u64;
    for (i, p) in prefixes.iter().enumerate() {
        match (ask(&live, p, 200 + i as u64), ask(&cold, p, 200 + i as u64)) {
            (Ok(a), Ok(b)) => {
                if a.items == b.items {
                    fold_matches += 1;
                } else {
                    failures.push(format!("post-fold answer diverged from cold build on prefix {i}"));
                }
                if a.epoch != 1 {
                    failures.push(format!("post-fold answer claims epoch {}, expected 1", a.epoch));
                }
            }
            (Err(e), _) | (_, Err(e)) => failures.push(format!("post-fold: {e}")),
        }
    }
    drop(live);
    drop(cold);
    std::fs::remove_dir_all(&dir).ok();
    let window = MetricsSnapshot::capture().delta_since(&base_snap);
    let slo = pmm_trace::slo::evaluate(&window, &SloPolicy::default());
    if !slo.ok() {
        let names: Vec<&str> = slo.breaches().iter().map(|c| c.name).collect();
        failures.push(format!("SLO breached under ingest load: {}", names.join(", ")));
    }
    Outcome {
        name: "ingest_under_load",
        wall: started.elapsed(),
        window,
        detail: vec![
            ("delta_items", delta.len() as u64),
            ("durable", durable as u64),
            ("delta_matches", delta_matches),
            ("fold_matches", fold_matches),
            ("fold_epoch", report.epoch),
        ],
        slo_ok: slo.ok(),
        failures,
    }
}

fn outcome_json(o: &Outcome) -> String {
    let detail =
        o.detail.iter().fold(JsonObj::new(), |obj, (k, v)| obj.u64(k, *v)).finish();
    format!(
        "    {{\n      \"scenario\": \"{}\",\n      \"wall_s\": {:.6},\n      \"wal_appends\": {},\n      \"wal_segments\": {},\n      \"wal_replayed\": {},\n      \"wal_truncated\": {},\n      \"ingest_items\": {},\n      \"ingest_folds\": {},\n      \"slo_ok\": {},\n      \"passed\": {},\n      \"detail\": {detail}\n    }}",
        o.name,
        o.wall.as_secs_f64(),
        o.window.counter("wal_appends"),
        o.window.counter("wal_segments"),
        o.window.counter("wal_replayed"),
        o.window.counter("wal_truncated"),
        o.window.counter("ingest_items"),
        o.window.counter("ingest_folds"),
        o.slo_ok,
        o.failures.is_empty(),
    )
}

fn main() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let no_replay = raw.iter().any(|a| a.as_str() == "--no-replay");
    let cli = Cli::parse(raw.into_iter().filter(|a| a.as_str() != "--no-replay"));
    pmm_bench::obs::setup(&cli);
    pmm_obs::set_enabled(true);

    let world = runner::world();
    // The streaming corpus: pinned seed so the 6-item tail exists at
    // every `--seed` (the model weights still follow the CLI seed).
    let full = Arc::new(registry::build_dataset(&world, DatasetId::Hm, Scale::Tiny, 42));
    if full.items.len() <= 12 {
        return Err(format!(
            "dataset too small to stream a tail: {} item(s)",
            full.items.len()
        ));
    }
    // Prefixes stay inside the truncated base catalog: the streaming
    // scenario serves them before the 6-item tail has been ingested.
    let base_len = full.items.len() - 6;
    let prefixes: Vec<Vec<usize>> = full
        .sequences
        .iter()
        .map(|s| {
            s.iter().copied().filter(|&i| i < base_len).take(3).collect::<Vec<usize>>()
        })
        .filter(|p| !p.is_empty())
        .take(4)
        .collect();
    if prefixes.is_empty() {
        return Err("dataset produced no non-empty prefixes".into());
    }
    let seed = cli.seed ^ 0x16E5;
    let stream: Vec<Item> = full.items.iter().take(12).cloned().collect();

    // A custom fault plan (or --no-replay) narrows the run to the
    // kill-and-replay leg — how verify.sh drives the must-fail gate.
    let custom = cli.fault_plan.is_some() || no_replay;
    let plan = cli.fault_plan.clone().unwrap_or_else(|| "wal_corrupt@2".into());

    let mut outcomes = Vec::new();
    println!("== ingest_chaos: kill_and_replay (faults {plan}) ==");
    outcomes.push(kill_and_replay(&stream, &plan, no_replay));
    if !custom {
        println!("== ingest_chaos: ingest_under_load ==");
        outcomes.push(ingest_under_load(&full, &prefixes, seed));
    }

    for o in &outcomes {
        let detail: Vec<String> =
            o.detail.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!(
            "  {}: {} in {:.2}s ({})",
            o.name,
            if o.failures.is_empty() { "ok" } else { "FAILED" },
            o.wall.as_secs_f64(),
            detail.join(", "),
        );
        for f in &o.failures {
            println!("    breach: {f}");
        }
    }

    let json = format!(
        "{{\n  \"bin\": \"ingest_chaos\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        outcomes.iter().map(outcome_json).collect::<Vec<_>>().join(",\n"),
    );
    if custom {
        print!("{json}");
    } else {
        std::fs::write("BENCH_ingest.json", &json)
            .map_err(|e| format!("cannot write BENCH_ingest.json: {e}"))?;
        println!("ingest_chaos: wrote BENCH_ingest.json");
    }
    pmm_bench::obs::finish("ingest_chaos");

    let failures: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.failures.iter().map(move |f| format!("{}: {f}", o.name)))
        .collect();
    if failures.is_empty() {
        println!("ingest_chaos PASSED: {} scenario(s) honored the durability contract", outcomes.len());
        Ok(())
    } else {
        Err(format!("ingest_chaos FAILED: {}", failures.join("; ")))
    }
}
