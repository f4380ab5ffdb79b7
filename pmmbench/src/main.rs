//! End-to-end benchmark of PMMRec pre-training, serving, and serving
//! while new items stream in.
//!
//! ```text
//! cargo run --release --offline --manifest-path pmmbench/Cargo.toml -- \
//!     --workload pretrain|serve|serve_ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs come from `pmm-data` and the seed; the program is driven only
//! through the crates' public API. The run checks every output, then
//! prints one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! (telemetry on) with `--trace 1`. See README.md.

mod checks;
mod layers;
mod pretrain;
mod serve;
mod stats;

use pmm_obs::counter::{
    MATMUL_FLOPS, PACK_ALLOC_BYTES, TAPE_NODES, TENSOR_ALLOCS, TENSOR_ALLOC_BYTES,
};
use stats::{Recorder, Report};
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["pretrain", "serve", "serve_ingest"];

/// Set-up bookkeeping: process start to the first timed operation.
pub struct Setup {
    start: Instant,
    /// Input generation time (`pmm-data`), milliseconds.
    pub data_ms: f64,
    setup_s: f64,
}

impl Setup {
    /// Marks the end of set-up.
    pub fn done(&mut self) {
        self.setup_s = self.start.elapsed().as_secs_f64();
    }
}

/// What a workload produced: its timed samples, operations completed
/// per round, operations attempted and failed, and any failed checks.
pub struct Outcome {
    pub rec: Recorder,
    pub ops_per_round: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

const MIB: f64 = 1024.0 * 1024.0;

/// The tensor counters read per operation in the traced run.
#[derive(Default, Clone, Copy)]
struct Counters {
    flops: u64,
    allocs: u64,
    alloc_bytes: u64,
    pack_bytes: u64,
    tape_nodes: u64,
}

impl Counters {
    fn now() -> Counters {
        Counters {
            flops: MATMUL_FLOPS.get(),
            allocs: TENSOR_ALLOCS.get(),
            alloc_bytes: TENSOR_ALLOC_BYTES.get(),
            pack_bytes: PACK_ALLOC_BYTES.get(),
            tape_nodes: TAPE_NODES.get(),
        }
    }
}

/// Telemetry switching for the traced run: odd rounds run with
/// `pmm_obs` collection on, even rounds with it off, so one run yields
/// both the per-operation counters and the tracing overhead, under the
/// same host phases. The timed run never switches it on.
pub struct Trace {
    on: bool,
    base: Counters,
    acc: Counters,
    ops: u64,
}

impl Trace {
    fn new(on: bool) -> Trace {
        Trace {
            on,
            base: Counters::default(),
            acc: Counters::default(),
            ops: 0,
        }
    }

    /// Starts round `i`; returns whether it is traced.
    pub fn round_begin(&mut self, i: usize) -> bool {
        let traced = self.on && i % 2 == 1;
        pmm_obs::set_enabled(traced);
        if traced {
            self.base = Counters::now();
        }
        traced
    }

    /// Ends a round that completed `ops` operations.
    pub fn round_end(&mut self, traced: bool, ops: u64) {
        pmm_obs::set_enabled(false);
        if traced {
            let now = Counters::now();
            self.acc.flops += now.flops - self.base.flops;
            self.acc.allocs += now.allocs - self.base.allocs;
            self.acc.alloc_bytes += now.alloc_bytes - self.base.alloc_bytes;
            self.acc.pack_bytes += now.pack_bytes - self.base.pack_bytes;
            self.acc.tape_nodes += now.tape_nodes - self.base.tape_nodes;
            self.ops += ops;
        }
    }

    pub fn stop(&mut self) {
        pmm_obs::set_enabled(false);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        // BENCHMARK.json's run_seconds.
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmmbench: {e}");
            std::process::exit(2);
        }
    };
    // Kernels single-threaded; the server gets one worker and the
    // client is this thread, so at most two threads are busy.
    pmm_par::set_threads(Some(1));
    pmm_obs::set_enabled(false);
    let mut setup = Setup {
        start,
        data_ms: f64::NAN,
        setup_s: f64::NAN,
    };
    let mut trace = Trace::new(args.trace);
    let run = match args.workload.as_str() {
        "pretrain" => pretrain::run,
        "serve" => serve::run_serve,
        _ => serve::run_ingest,
    };
    let Outcome {
        rec,
        ops_per_round,
        attempted,
        failed,
        mut errors,
    } = run(args.seed, args.seconds, &mut trace, &mut setup);

    eprintln!(
        "pmmbench: set-up {:.3} s, of which inputs {:.0} ms",
        setup.setup_s, setup.data_ms
    );
    let mut report = Report::default();
    if !args.trace {
        let f = rec.figures(false, ops_per_round);
        report.put("setup_s", setup.setup_s, "s");
        report.put("ops_per_s", f.ops_per_s, "op/s");
        report.put("op_p50_ms", f.p50_ms, "ms");
        report.put("op_p99_ms", f.p99_ms, "ms");
        report.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        eprintln!("pmmbench: {} rounds", f.rounds);
    } else {
        let ops = trace.ops.max(1) as f64;
        let c = trace.acc;
        report.put("data.build_ms", setup.data_ms, "ms");
        report.put(
            "tensor.matmul_flops_per_op",
            c.flops as f64 / ops,
            "flop/op",
        );
        report.put("tensor.allocs_per_op", c.allocs as f64 / ops, "count/op");
        report.put(
            "tensor.alloc_mib_per_op",
            c.alloc_bytes as f64 / MIB / ops,
            "MiB/op",
        );
        report.put(
            "tensor.pack_mib_per_op",
            c.pack_bytes as f64 / MIB / ops,
            "MiB/op",
        );
        report.put(
            "tensor.tape_nodes_per_op",
            c.tape_nodes as f64 / ops,
            "count/op",
        );
        let plain = rec.figures(false, ops_per_round).ops_per_s;
        let traced = rec.figures(true, ops_per_round).ops_per_s;
        report.put("trace.overhead_pct", 100.0 * (plain / traced - 1.0), "%");
        layers::run(args.seed, &mut report, &mut errors);
    }
    for e in &errors {
        eprintln!("pmmbench: check failed: {e}");
    }
    println!("{}", report.json(errors.is_empty(), attempted, failed));
}
