//! Tracing smoke benchmark: serves a fixed request stream through the
//! pmm-serve runtime with full tracing on, then checks the three
//! observability contracts end to end:
//!
//! * every accepted request carries a `TraceId` whose buffered events
//!   reconstruct into a single causal chain — `enqueue` at seq 0,
//!   contiguous sequence numbers, exactly one `respond`, `request`
//!   last;
//! * the stage latency histograms (queue wait, encode, user encode,
//!   rank) each saw every request, with non-zero p50/p95/p99;
//! * the run's metrics window evaluates against the default
//!   [`pmm_trace::SloPolicy`]; with `--slo-gate` a breach exits
//!   non-zero, which is how `scripts/verify.sh` gates CI.
//!
//! With `--fault-plan SPEC` (e.g. `slow@0,slow@4,...`) injected stalls
//! burn the 250 ms deadline, the miss-rate budget blows, and the gate
//! must fail — verify.sh runs that as an expected-failure check. The
//! breaker is configured to never trip here so every stall converts
//! deterministically into a deadline miss rather than a tier change.
//!
//! A clean run writes `BENCH_trace.json` (stage quantiles, tier
//! counts, SLO burn rates); a `--fault-plan` run only prints it, so the
//! recorded file always describes the clean run. `--metrics PATH` /
//! `PMM_METRICS` writes the Prometheus-style exposition of the
//! end-of-run snapshot.

use pmm_baselines::Popularity;
use pmm_bench::cli::Cli;
use pmm_bench::runner;
use pmm_data::dataset::Dataset;
use pmm_data::registry::DatasetId;
use pmm_obs::json::JsonObj;
use pmm_serve::{BreakerConfig, PmmEngine, Request, Server, ServeError, ServerConfig};
use pmm_trace::{MetricsSnapshot, SloPolicy, TraceEvent, TraceId};
use pmmrec::{PmmRec, PmmRecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Small serving model, seeded identically per replica.
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

/// The stage histograms whose quantiles the smoke run reports; the
/// bool says whether the clean run must see a non-zero p50 (user
/// encode can legitimately be sub-bucket fast on an empty prefix, so
/// only admission-to-rank stages are asserted).
const STAGES: [(&str, bool); 5] = [
    ("stage_queue_wait_ns", true),
    ("stage_encode_ns", true),
    ("stage_user_encode_ns", false),
    ("stage_rank_ns", true),
    ("request_total_ns", true),
];

/// Per-trace chain invariants over the buffered events: contiguous
/// seq from 0, `enqueue` first, exactly one `respond`, `request` last.
fn check_chain(trace: TraceId, events: &[TraceEvent], check: &mut dyn FnMut(bool, &str)) {
    // Ring order is push order; the submit-side enqueue event races
    // the worker's first events, so reconstruction orders by seq.
    let mut chain: Vec<&TraceEvent> = events.iter().filter(|e| e.trace == trace).collect();
    chain.sort_by_key(|e| e.seq);
    check(!chain.is_empty(), &format!("{trace}: no events buffered"));
    if chain.is_empty() {
        return;
    }
    let seqs: Vec<u32> = chain.iter().map(|e| e.seq).collect();
    let contiguous = seqs.iter().enumerate().all(|(i, &s)| s == i as u32);
    check(contiguous, &format!("{trace}: seq not contiguous from 0: {seqs:?}"));
    check(
        chain.first().is_some_and(|e| e.stage == "enqueue"),
        &format!("{trace}: chain does not start with enqueue"),
    );
    check(
        chain.last().is_some_and(|e| e.stage == "request"),
        &format!("{trace}: chain does not end with the request event"),
    );
    let responds = chain.iter().filter(|e| e.stage == "respond").count();
    check(responds == 1, &format!("{trace}: {responds} respond events (want exactly 1)"));
    // Worker-side events are causally ordered in time. Excluded from
    // the monotonicity check: seq 0 (enqueue, submitter clock), seq 1
    // (queue wait, start backdated by its duration), and the trailing
    // request event (emitted last but started at handler entry).
    let upper = chain.len().saturating_sub(1).max(2);
    let worker = &chain[2.min(chain.len())..upper];
    let ordered = worker.windows(2).all(|w| w[0].start_ns <= w[1].start_ns);
    check(ordered, &format!("{trace}: worker event start times regress"));
}

fn main() -> Result<(), String> {
    let cli = Cli::from_env();
    let chaos = cli.fault_plan.is_some();
    pmm_bench::obs::setup(&cli);
    // Histograms, counters, and trace events are the subject of this
    // binary; force collection on even without a sink.
    pmm_obs::set_enabled(true);

    let world = runner::world();
    let split = runner::split(&world, DatasetId::HmClothes, &cli);
    let prefixes: Vec<Vec<usize>> = split
        .valid
        .iter()
        .take(6)
        .map(|c| c.prefix.clone())
        .filter(|p| !p.is_empty())
        .collect();
    if prefixes.is_empty() {
        return Err("dataset produced no non-empty validation prefixes".into());
    }
    let dataset = Arc::new(split.dataset);
    let popularity = Popularity::from_sequences(dataset.items.len(), &split.train);
    let seed = cli.seed ^ 0x7ACE;

    let base = MetricsSnapshot::capture();
    pmm_trace::ring::clear();

    // One worker so fault-plan occurrences line up with request order;
    // the breaker never trips, so an injected 400 ms stall always
    // converts into a deadline miss instead of a tier change.
    let server = Server::start(
        ServerConfig {
            workers: Some(1),
            deadline: Duration::from_millis(250),
            slow_fault: Duration::from_millis(400),
            breaker: BreakerConfig {
                window: 8,
                trip_failures: 1_000_000,
                cooldown_denials: 1_000_000,
            },
            ..ServerConfig::default()
        },
        engine_factory(Arc::clone(&dataset), seed),
        popularity,
    );

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };

    println!("== trace smoke{} ==", if chaos { " (chaos mode)" } else { "" });
    let (mut served, mut shed, mut missed) = (0u64, 0u64, 0u64);
    let mut tiers: Vec<&'static str> = Vec::new();
    let mut accepted: Vec<TraceId> = Vec::new();
    for round in 0..3u64 {
        for (i, prefix) in prefixes.iter().enumerate() {
            let user = round * 100 + i as u64;
            let req =
                Request { user, prefix: prefix.clone(), k: 10, exclude_seen: true, deadline: None };
            match server.submit(req) {
                Err(ServeError::Rejected { .. }) => shed += 1,
                Err(e) => check(false, &format!("unexpected submit error: {e}")),
                Ok(handle) => {
                    let trace = handle.trace;
                    accepted.push(trace);
                    match handle.wait() {
                        Ok(resp) => {
                            served += 1;
                            tiers.push(resp.tier.label());
                            check(
                                resp.trace == trace,
                                "response trace id matches the submit handle",
                            );
                            check(!resp.items.is_empty(), "every response carries items");
                        }
                        Err(ServeError::DeadlineExceeded { .. }) => missed += 1,
                        Err(e) => check(false, &format!("unexpected serve error: {e}")),
                    }
                }
            }
        }
    }
    server.shutdown();
    if chaos {
        pmm_fault::clear();
    }

    let submitted = 3 * prefixes.len() as u64;
    check(
        served + shed + missed == submitted,
        "every submission resolved exactly once (served, shed, or missed)",
    );
    check(served > 0, "the stream was not fully starved");

    // Chain reconstruction over the buffered events, before anything
    // flushes the ring.
    let events = pmm_trace::ring::snapshot();
    for &trace in &accepted {
        check_chain(trace, &events, &mut check);
    }

    let window = MetricsSnapshot::capture().delta_since(&base);
    if !chaos {
        check(missed == 0 && shed == 0, "clean run serves everything");
        for (name, _) in STAGES {
            let count = window.hist(name).map_or(0, |h| h.count);
            check(
                count == served,
                &format!("{name} saw {count} observations (want {served})"),
            );
        }
    }
    println!("  {submitted} submitted: {served} served, {shed} shed, {missed} deadline-missed");
    println!("  {:<22} {:>6} {:>12} {:>12} {:>12} {:>12}", "stage", "count", "p50", "p95", "p99", "mean");
    let mut stage_rows: Vec<String> = Vec::new();
    for (name, require_nonzero) in STAGES {
        let h = match window.hist(name) {
            Some(h) => h.clone(),
            None => {
                check(false, &format!("histogram {name} is not registered"));
                continue;
            }
        };
        let (p50, p90, p95, p99) = (
            h.quantile_ns(0.50),
            h.quantile_ns(0.90),
            h.quantile_ns(0.95),
            h.quantile_ns(0.99),
        );
        if !chaos && require_nonzero {
            check(
                p50 > 0 && p95 > 0 && p99 > 0,
                &format!("{name} quantiles must be non-zero (p50={p50} p95={p95} p99={p99})"),
            );
        }
        println!(
            "  {:<22} {:>6} {:>9.3}us {:>9.3}us {:>9.3}us {:>9.3}us",
            name,
            h.count,
            p50 as f64 / 1e3,
            p95 as f64 / 1e3,
            p99 as f64 / 1e3,
            h.mean_ns() / 1e3,
        );
        stage_rows.push(format!(
            "    {}",
            JsonObj::new()
                .str("stage", name)
                .u64("count", h.count)
                .u64("p50_ns", p50)
                .u64("p90_ns", p90)
                .u64("p95_ns", p95)
                .u64("p99_ns", p99)
                .f64("mean_ns", h.mean_ns())
                .finish()
        ));
    }

    // SLO evaluation over this run's window; breaches are logged and
    // emitted as "ev":"slo" sink events by the evaluator itself.
    let report = pmm_trace::slo::evaluate(&window, &SloPolicy::default());
    let mut slo_rows: Vec<String> = Vec::new();
    for c in &report.checks {
        println!(
            "  slo {:<20} {:>10.4} / {:<10.4} burn {:>6.2}x {}",
            c.name,
            c.value,
            c.threshold,
            c.burn_rate(),
            if c.breached() { "BREACHED" } else { "ok" },
        );
        slo_rows.push(format!(
            "    {}",
            JsonObj::new()
                .str("check", c.name)
                .f64("value", c.value)
                .f64("threshold", c.threshold)
                .f64("burn_rate", c.burn_rate())
                .bool("breached", c.breached())
                .finish()
        ));
    }
    if !chaos {
        check(report.ok(), "clean run must hold every SLO");
    }

    let mut dist: Vec<(&str, usize)> = Vec::new();
    for t in tiers {
        match dist.iter_mut().find(|(name, _)| *name == t) {
            Some((_, n)) => *n += 1,
            None => dist.push((t, 1)),
        }
    }
    let tier_obj = dist
        .iter()
        .fold(JsonObj::new(), |obj, (t, n)| obj.u64(t, *n as u64))
        .finish();
    let json = format!(
        "{{\n  \"bin\": \"trace_smoke\",\n  \"chaos\": {chaos},\n  \"requests\": {submitted},\n  \"served\": {served},\n  \"shed\": {shed},\n  \"missed\": {missed},\n  \"tiers\": {tier_obj},\n  \"trace_events\": {},\n  \"trace_dropped\": {},\n  \"stages\": [\n{}\n  ],\n  \"slo_ok\": {},\n  \"slo\": [\n{}\n  ]\n}}\n",
        window.counter("trace_events"),
        window.counter("trace_dropped"),
        stage_rows.join(",\n"),
        report.ok(),
        slo_rows.join(",\n"),
    );
    if chaos {
        print!("{json}");
    } else {
        match std::fs::write("BENCH_trace.json", &json) {
            Ok(()) => println!("trace_smoke: wrote BENCH_trace.json"),
            Err(e) => println!("trace_smoke: cannot write BENCH_trace.json: {e}"),
        }
    }
    pmm_bench::obs::finish("trace_smoke");

    if cli.slo_gate && !report.ok() {
        let names: Vec<&str> = report.breaches().iter().map(|c| c.name).collect();
        return Err(format!("SLO gate failed: {} breached", names.join(", ")));
    }
    if failures.is_empty() {
        println!(
            "trace smoke PASSED: {} traces reconstructed, stage histograms populated, SLO {}",
            accepted.len(),
            if report.ok() { "held" } else { "breached (gate off)" },
        );
        Ok(())
    } else {
        Err(format!("trace smoke FAILED: {}", failures.join("; ")))
    }
}
