//! End-to-end and per-layer benchmark of the attack pipeline and the serving
//! tier. It drives the library crates only through their public functions,
//! generates every input from `--seed`, checks every output, and prints every
//! metric by name with its unit and sample count.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload game_msopds --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Workloads: `game_msopds` (see `games.rs`) and
//! `serve_zipf` (see `serving.rs`). With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics,
//! from telemetry spans and counters for the games and from a tier-by-tier
//! pass for serving. The next-to-last stdout line is a full report (host
//! record, sample counts, base counts); the last line is the result object.
//!
//! `--bless N` replays seeds `0..N` of a game workload and rewrites its
//! committed reference table in `reference/`.

mod games;
mod host;
mod serving;
mod stats;

use stats::{json_num, json_str, Metric};

/// Kernel-pool lanes every workload runs at.
pub const KERNEL_LANES: usize = 2;

/// End-to-end metrics: (name, unit). Every workload reports all of them, so
/// the serving tail is not among them: a game run has about 20 ops, whose
/// p99 is just the slowest op. The serving tail is `serve_net.op_p99_ms`
/// (per layer) and `op_p99_ms` in every serving run's report line.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: (name, unit). A metric a workload does not exercise
/// reads 0 with 0 samples.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.steal_s", "s"),
    ("host.ref_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.overhead_pct", "%"),
    ("recdata.world_build_s", "s"),
    ("gameplay.play_world_ms", "ms"),
    ("gameplay.score_world_ms", "ms"),
    ("gameplay.target_rbar", "rating"),
    ("gameplay.victim_rmse", "rating"),
    ("core.attacker_plan_ms", "ms"),
    ("core.opponent_plans_ms", "ms"),
    ("core.mso.iterations", "count/op"),
    ("core.mso.build_ms", "ms"),
    ("core.mso.grads_ms", "ms"),
    ("core.mso.correction_ms", "ms"),
    ("recsys.pds.unroll_steps", "count/op"),
    ("autograd.cg_multi_ms", "ms"),
    ("autograd.cg.solves", "count/op"),
    ("autograd.cg.iterations", "count/op"),
    ("autograd.tape.ops", "count/op"),
    ("autograd.pool.hits", "count/op"),
    ("autograd.pool.misses", "count/op"),
    ("autograd.pool.hit_ratio", "ratio"),
    ("recsys.hetrec.epoch_ms", "ms"),
    ("recsys.hetrec.epochs", "count/op"),
    ("recsys.adjacency_lru.hits", "count/op"),
    ("recsys.adjacency_lru.misses", "count/op"),
    ("recsys.adjacency_lru.hit_ratio", "ratio"),
    ("recsys.snapshot.open_ms", "ms"),
    ("serve.score_us_per_user", "us"),
    ("serve.topk_us_per_user", "us"),
    ("serve.engine_us_per_query", "us"),
    ("serve.lru_hits", "count"),
    ("serve.lru_misses", "count"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve_async.us_per_query", "us"),
    ("serve_async.batches", "count"),
    ("serve_async.batch_fill", "query/batch"),
    ("serve_async.flush_full", "count"),
    ("serve_async.flush_full_ratio", "ratio"),
    ("serve_net.wire_us_per_query", "us"),
    ("serve_net.op_p99_ms", "ms"),
    ("serve_net.completed", "count"),
    ("serve_net.rejected", "count"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra numbers for the report line only.
    pub details: Vec<(String, f64)>,
}

impl RunOutput {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.details.push((name.to_string(), value));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10, trace: false, bless: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--bless" => args.bless = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    msopds_autograd::pool::configure_threads(KERNEL_LANES);

    if let Some(n_seeds) = args.bless {
        let Some(spec) = games::GameSpec::named(&args.workload) else {
            eprintln!("perfbench: --bless applies to game workloads only");
            std::process::exit(2);
        };
        games::bless(spec, n_seeds).expect("write reference table");
        return;
    }

    let probe = host::HostProbe::start();
    let mut out = match args.workload.as_str() {
        "serve_zipf" => serving::run(args.seed, args.seconds, args.trace),
        name => match games::GameSpec::named(name) {
            Some(spec) => games::run(spec, args.seed, args.seconds, args.trace),
            None => {
                eprintln!("perfbench: unknown workload {name:?}");
                std::process::exit(2);
            }
        },
    };
    let noise = probe.finish();

    if args.trace {
        out.push(Metric::new("host.steal_s", noise.steal_s, "s", 1));
        out.push(Metric::new(
            "host.ref_ms",
            0.5 * (noise.ref_before_ms + noise.ref_after_ms),
            "ms",
            2,
        ));
    } else {
        out.push(Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB", 1));
        let ok = out.attempted - out.failed.min(out.attempted);
        out.push(Metric::new(
            "ok_ratio",
            stats::ratio(ok as f64, out.attempted as f64),
            "ratio",
            out.attempted,
        ));
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<Metric> = wanted
        .iter()
        .map(|&(name, unit)| match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "unit of {name}");
                m.clone()
            }
            None => Metric::new(name, 0.0, unit, 0),
        })
        .collect();
    for m in &out.metrics {
        assert!(wanted.iter().any(|w| w.0 == m.name), "metric {} is not declared", m.name);
    }

    let listed: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let details: Vec<String> =
        out.details.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v))).collect();
    println!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{},\"cpu_model\":{},\"kernel_lanes\":{},\"steal_s\":{},\"ref_ms_before\":{},\"ref_ms_after\":{}}},\"attempted\":{},\"failed\":{},\"metrics\":[{}],\"details\":{{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc(),
        json_str(&host::cpu_model()),
        KERNEL_LANES,
        json_num(noise.steal_s),
        json_num(noise.ref_before_ms),
        json_num(noise.ref_after_ms),
        out.attempted,
        out.failed,
        listed.join(","),
        details.join(",")
    );
    let result: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    // A run that attempted nothing has failed outright.
    let (attempted, failed) = if out.attempted == 0 { (1, 1) } else { (out.attempted, out.failed) };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted,
        failed,
        result.join(",")
    );
}
