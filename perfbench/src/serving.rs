//! The `serve_zipf` workload: the serving tier over loopback.
//!
//! Set-up streams a 20k-user × 20k-item Ciao-profile world through
//! `WorldBuilder`, writes its planted MF model with `SnapshotWriter`, opens
//! it with mmap, starts `AsyncServer` behind `NetServer`, connects one
//! pipelined `NetClient` and serves one warm-up chunk. An op is one served
//! query: exact64 top-10 through an engine LRU of 4096 users, driven in a
//! closed loop with 64 queries in flight from a Zipf-skewed user stream.
//!
//! Checks: every query of a chunk must complete; afterwards a fixed sample
//! of users is queried one by one and each answer must equal, bit for bit,
//! `ServingModel::top_k_batch` of an independently heap-loaded copy of the
//! snapshot; after the drain `offered == completed + rejected + drained`
//! must hold and `offered` must equal what the client sent.
//!
//! The traced run feeds the same query batches through each tier's public
//! entry point in turn (`score_batch`, `top_k_batch`, `ServeEngine`,
//! `AsyncServer`, `NetClient` → `NetServer`). The async and wire costs are
//! a tier's per-query wall time minus the tier below it. `score_batch` and
//! `top_k_batch` are both reported whole: `top_k_batch` fuses its own
//! scoring, so it is not layered over `score_batch`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use msopds_het_graph::CsrBuilder;
use msopds_recdata::{DensityProfile, WorldBuilder};
use msopds_recsys::snapshot::{ModelKind, SnapshotHeader, SnapshotWriter, TensorDecl};
use msopds_recsys::Backend;
use msopds_serve::{
    MappedSnapshot, ScorePrecision, ServeConfig, ServeEngine, ServingModel, SnapshotSource,
};
use msopds_serve_async::{AsyncServeConfig, AsyncServer, BatcherConfig, SystemClock};
use msopds_serve_net::{NetClient, NetServeConfig, NetServer, PipelineReport, RetryPolicy};
use msopds_telemetry as telemetry;

use crate::stats::{median, percentile, ratio, Metric};
use crate::RunOutput;

const N_USERS: usize = 20_000;
const N_ITEMS: usize = 20_000;
const DIM: usize = 8;
const TOP_K: usize = 10;
const LRU_USERS: usize = 4096;
/// Queries in flight on the one connection (closed loop).
const WINDOW: usize = 64;
/// Queries per timed chunk; per-run figures are medians over chunks.
const CHUNK: u64 = 8192;
/// Length of the generated query stream (the run wraps around it).
const STREAM_LEN: usize = 1 << 20;
const ZIPF_EXPONENT: f64 = 1.0;
/// Users checked one by one against the reference model after the run.
const SAMPLE_USERS: usize = 64;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries per tier in the traced run (the cold tiers score the first
/// [`COLD_QUERIES`] of them).
const TIER_QUERIES: usize = 16_384;
const COLD_QUERIES: usize = 2048;
const WORLD_CHUNK_ROWS: usize = 4096;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The query stream: Zipf(1.0) over popularity ranks, with the rank → user
/// map a seeded permutation so each seed has its own hot users.
fn zipf_stream(seed: u64) -> Vec<u64> {
    let mut state = seed ^ 0x5E4E_2F1F;
    let mut users: Vec<u64> = (0..N_USERS as u64).collect();
    for i in (1..users.len()).rev() {
        users.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    let mut cdf = Vec::with_capacity(N_USERS);
    let mut total = 0.0;
    for rank in 0..N_USERS {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
        cdf.push(total);
    }
    (0..STREAM_LEN)
        .map(|_| {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * total;
            users[cdf.partition_point(|&c| c <= u).min(N_USERS - 1)]
        })
        .collect()
}

/// Streams the world once (ratings, social edges, planted factors) and
/// returns its builder and social-graph fingerprint.
fn build_world(seed: u64) -> (WorldBuilder, u64) {
    let mut spec = DensityProfile::ciao().spec("ciao-serve", N_USERS);
    spec.n_items = N_ITEMS;
    spec.latent_dim = DIM;
    let builder = WorldBuilder::streaming(spec.clone(), seed);
    let mut social = CsrBuilder::with_capacity(spec.n_users, spec.n_links);
    let mut digest = 0.0f64;
    builder.for_each_chunk(WORLD_CHUNK_ROWS, |chunk| {
        digest += chunk.ratings.iter().map(|r| r.value).sum::<f64>();
        social.add_edges(chunk.social_edges.iter().copied());
    });
    assert!(digest.is_finite(), "world ratings must be finite");
    let fingerprint = social.finish().fingerprint();
    (builder, fingerprint)
}

/// Writes the planted MF model of `builder`'s world, tensor by tensor.
fn write_snapshot(path: &Path, builder: &WorldBuilder, fingerprint: u64, seed: u64) {
    let header = SnapshotHeader {
        kind: ModelKind::Mf,
        backend: Backend::Sparse,
        seed,
        social_fingerprint: fingerprint,
        item_fingerprint: 0,
        n_users: N_USERS as u64,
        n_items: N_ITEMS as u64,
        mu: 3.5,
    };
    let mut writer = SnapshotWriter::create(
        path,
        header,
        "{\"planted\":true}",
        vec![
            TensorDecl::matrix("p", N_USERS, DIM),
            TensorDecl::matrix("q", N_ITEMS, DIM),
            TensorDecl::vector("b_u", N_USERS),
            TensorDecl::vector("b_i", N_ITEMS),
        ],
    )
    .expect("create snapshot");
    builder.for_each_chunk(WORLD_CHUNK_ROWS, |chunk| {
        writer.write(&chunk.user_latent).expect("write user factors");
    });
    writer.write(&builder.item_latent()).expect("write item factors");
    writer.write(&vec![0.0; N_USERS]).expect("write user biases");
    writer.write(&vec![0.0; N_ITEMS]).expect("write item biases");
    writer.finish().expect("finish snapshot");
}

fn serve_config() -> AsyncServeConfig {
    AsyncServeConfig {
        batcher: BatcherConfig::default(),
        serve: ServeConfig {
            top_k: TOP_K,
            cache_capacity: LRU_USERS,
            precision: ScorePrecision::Exact64,
        },
    }
}

/// One stood-up serving stack.
struct Stack {
    path: PathBuf,
    model: Arc<ServingModel>,
    net: NetServer,
    client: NetClient,
    /// Queries this client has sent, warm-up and checks included.
    sent: u64,
}

struct SetupTimes {
    total: Duration,
    world_build: Duration,
    snapshot_open: Duration,
}

fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let dir = target.join("perfbench-work");
    std::fs::create_dir_all(&dir).expect("create work directory");
    dir
}

/// Every input of the run plus one warm-up chunk: one set-up.
fn set_up(seed: u64, index: usize) -> (Stack, Arc<Vec<u64>>, SetupTimes) {
    let start = Instant::now();
    let stream = Arc::new(zipf_stream(seed));
    let build_start = Instant::now();
    let (builder, fingerprint) = build_world(seed);
    let world_build = build_start.elapsed();
    let path = work_dir().join(format!("serve-{}-{index}.msnap", std::process::id()));
    write_snapshot(&path, &builder, fingerprint, seed);
    let open_start = Instant::now();
    let mapped = MappedSnapshot::open(&path).expect("mmap snapshot");
    let snapshot_open = open_start.elapsed();
    let model = Arc::new(ServingModel::from_mapped(Arc::new(mapped)).expect("serving model"));
    let server = AsyncServer::start_with_clock(
        Arc::clone(&model),
        serve_config(),
        Arc::new(SystemClock::new()),
    );
    let net = NetServer::start("127.0.0.1:0", server, NetServeConfig::default())
        .expect("bind loopback server");
    let client = NetClient::connect(net.local_addr(), RetryPolicy::default()).expect("connect");
    let mut stack = Stack { path, model, net, client, sent: 0 };
    let warm = stack.chunk(&stream, 0);
    assert_eq!(warm.completed, CHUNK, "warm-up chunk must complete");
    (stack, stream, SetupTimes { total: start.elapsed(), world_build, snapshot_open })
}

impl Stack {
    /// Serves `CHUNK` queries starting at stream position `pos`.
    fn chunk(&mut self, stream: &Arc<Vec<u64>>, pos: usize) -> PipelineReport {
        let s = Arc::clone(stream);
        let report = self
            .client
            .run_pipelined(CHUNK, WINDOW, 0, move |i| s[(pos + i as usize) % STREAM_LEN])
            .expect("pipelined drive");
        self.sent += report.offered;
        report
    }

    /// Queries a fixed user sample one by one and compares each answer with
    /// a heap-loaded copy of the snapshot. Returns (checked, mismatched).
    fn check_sample(&mut self, stream: &[u64]) -> (u64, u64) {
        let reference = ServingModel::open(&SnapshotSource::file(&self.path)).expect("heap load");
        assert_eq!(reference.n_users(), self.model.n_users());
        let mut users: Vec<usize> = Vec::new();
        for &u in stream {
            if users.len() == SAMPLE_USERS / 2 {
                break;
            }
            if !users.contains(&(u as usize)) {
                users.push(u as usize);
            }
        }
        users.extend(
            (0..SAMPLE_USERS / 2).map(|j| (j * N_USERS / (SAMPLE_USERS / 2) + 7) % N_USERS),
        );
        let expected = reference.top_k_batch(&users, TOP_K);
        let mut mismatched = 0;
        for (&user, want) in users.iter().zip(&expected) {
            self.sent += 1;
            let same = match self.client.query(user as u64, 0, false) {
                Ok(got) => {
                    got.len() == want.len()
                        && got.iter().zip(want).all(|(g, w)| {
                            g.item == w.item && g.score.to_bits() == w.score.to_bits()
                        })
                }
                Err(e) => {
                    eprintln!("perfbench: sample query for user {user} failed: {e:?}");
                    false
                }
            };
            if !same {
                eprintln!(
                    "perfbench: served answer for user {user} differs from the reference model"
                );
                mismatched += 1;
            }
        }
        (users.len() as u64, mismatched)
    }

    /// Drains the server and checks its accounting. Returns the final stats
    /// and whether they balance against what the client sent.
    fn tear_down(self) -> (msopds_serve_net::NetStats, bool) {
        let Stack { path, model, net, client, sent } = self;
        drop(client);
        let stats = net.drain();
        drop(model);
        std::fs::remove_file(&path).ok();
        // `balanced` is `offered == completed + rejected + drained` (and the
        // reject buckets summing up).
        let balanced = stats.balanced() && stats.offered == sent;
        if !balanced {
            eprintln!(
                "perfbench: serving accounting does not balance: {stats:?}, client sent {sent}"
            );
        }
        (stats, balanced)
    }
}

fn chunk_figures(r: &PipelineReport) -> (f64, f64, f64) {
    let lat: Vec<f64> = r.latencies_us.iter().map(|&us| us as f64 / 1e3).collect();
    (
        ratio(r.completed as f64, r.elapsed.as_secs_f64()),
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
    )
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> RunOutput {
    telemetry::set_enabled(false);
    let budget = Duration::from_secs(seconds);
    let mut out = RunOutput::default();

    let setups = if trace { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut live: Option<(Stack, Arc<Vec<u64>>)> = None;
    for index in 0..setups {
        if let Some((stack, _)) = live.take() {
            let (stats, balanced) = stack.tear_down();
            out.attempted += stats.offered;
            out.failed += if balanced { stats.offered - stats.completed } else { stats.offered };
        }
        let (stack, stream, t) = set_up(seed, index);
        times.push(t);
        live = Some((stack, stream));
    }
    let (mut stack, stream) = live.expect("at least one set-up");
    let setup_s: Vec<f64> = times.iter().map(|t| t.total.as_secs_f64()).collect();
    let world_s: Vec<f64> = times.iter().map(|t| t.world_build.as_secs_f64()).collect();
    let open_ms: Vec<f64> = times.iter().map(|t| t.snapshot_open.as_secs_f64() * 1e3).collect();

    let mut pos = CHUNK as usize;
    let mut tiers = Vec::new();
    let mut overhead = (Vec::new(), Vec::new());
    let mut traced_queries = 0u64;
    let mut chunks = Vec::new();
    let start = Instant::now();
    if trace {
        tiers = measure_tiers(&mut stack, &stream, pos);
        pos += TIER_QUERIES;
        // Alternate untraced and traced chunks on the live stack.
        while overhead.0.is_empty() || start.elapsed() < budget {
            for traced in [false, true] {
                telemetry::set_enabled(traced);
                let r = stack.chunk(&stream, pos);
                telemetry::set_enabled(false);
                traced_queries += if traced { r.offered } else { 0 };
                pos += CHUNK as usize;
                if traced { &mut overhead.1 } else { &mut overhead.0 }.push(chunk_figures(&r));
            }
        }
    } else {
        while chunks.is_empty() || start.elapsed() < budget {
            let r = stack.chunk(&stream, pos);
            pos += CHUNK as usize;
            chunks.push(chunk_figures(&r));
        }
    }
    let (checked, mismatched) = stack.check_sample(&stream);
    let (stats, balanced) = stack.tear_down();
    // Every query the final stack was offered is an op; one that was not
    // answered, or whose check failed, is a failed op.
    out.attempted += stats.offered;
    out.failed +=
        if balanced { stats.offered - stats.completed + mismatched } else { stats.offered };
    out.detail("serve.sample_checked", checked as f64);
    out.detail("serve.sample_mismatched", mismatched as f64);

    if !trace {
        let n = chunks.len() as u64;
        let col = |f: fn(&(f64, f64, f64)) -> f64| chunks.iter().map(f).collect::<Vec<f64>>();
        out.push(Metric::new("setup_s", median(&setup_s), "s", setups as u64));
        out.push(Metric::new("ops_per_s", median(&col(|c| c.0)), "1/s", n));
        out.push(Metric::new("op_p50_ms", median(&col(|c| c.1)), "ms", n));
        out.detail("op_p99_ms", median(&col(|c| c.2)));
        out.detail("serve.chunks", n as f64);
        out.detail("serve.queries_per_chunk", CHUNK as f64);
        out.detail("recdata.world_build_s", median(&world_s));
        return out;
    }

    out.metrics.extend(tiers);
    let pairs = overhead.0.len() as u64;
    let p50 = |chunks: &[(f64, f64, f64)]| median(&chunks.iter().map(|c| c.1).collect::<Vec<_>>());
    let untraced_p99: Vec<f64> = overhead.0.iter().map(|c| c.2).collect();
    out.push(Metric::new("trace.ops", traced_queries as f64, "count", pairs));
    out.push(Metric::new(
        "trace.overhead_pct",
        (p50(&overhead.1) / p50(&overhead.0) - 1.0) * 100.0,
        "%",
        2 * pairs,
    ));
    out.push(Metric::new("serve_net.op_p99_ms", median(&untraced_p99), "ms", pairs));
    out.push(Metric::new("recdata.world_build_s", median(&world_s), "s", setups as u64));
    out.push(Metric::new("recsys.snapshot.open_ms", median(&open_ms), "ms", setups as u64));
    out.push(Metric::new("serve_net.completed", stats.completed as f64, "count", 1));
    out.push(Metric::new("serve_net.rejected", stats.rejected as f64, "count", 1));
    out
}

/// Per-query wall time of each tier over the same batches, microseconds.
fn measure_tiers(stack: &mut Stack, stream: &Arc<Vec<u64>>, pos: usize) -> Vec<Metric> {
    let warm: Vec<usize> = stream[..CHUNK as usize].iter().map(|&u| u as usize).collect();
    let timed: Vec<usize> = stream[pos..pos + TIER_QUERIES].iter().map(|&u| u as usize).collect();
    let model = &stack.model;
    let us_per = |d: Duration, n: usize| d.as_secs_f64() * 1e6 / n as f64;

    // Model tier: cold scoring, then scoring plus top-K selection.
    let cold = &timed[..COLD_QUERIES];
    let t = Instant::now();
    for batch in cold.chunks(WINDOW) {
        std::hint::black_box(model.score_batch(batch));
    }
    let score_us = us_per(t.elapsed(), cold.len());
    let t = Instant::now();
    for batch in cold.chunks(WINDOW) {
        std::hint::black_box(model.top_k_batch(batch, TOP_K));
    }
    let top_k_us = us_per(t.elapsed(), cold.len());

    // Engine tier: the LRU in front of the model, warmed on the same
    // stream prefix the network stack was warmed on.
    let mut engine = ServeEngine::new_shared(Arc::clone(model), serve_config().serve);
    for batch in warm.chunks(WINDOW) {
        engine.serve_batch(batch);
    }
    let before = engine.stats().clone();
    let t = Instant::now();
    for batch in timed.chunks(WINDOW) {
        std::hint::black_box(engine.serve_batch(batch));
    }
    let engine_us = us_per(t.elapsed(), timed.len());
    let hits = (engine.stats().cache_hits - before.cache_hits) as f64;
    let misses = (engine.stats().cache_misses - before.cache_misses) as f64;

    // Async tier: the batcher in front of a fresh engine, one submitting
    // thread keeping `WINDOW` tickets outstanding.
    let server = AsyncServer::start_with_clock(
        Arc::clone(model),
        serve_config(),
        Arc::new(SystemClock::new()),
    );
    let drive = |users: &[usize]| {
        let mut outstanding = VecDeque::with_capacity(WINDOW);
        for &u in users {
            if outstanding.len() == WINDOW {
                let ticket: msopds_serve_async::Ticket =
                    outstanding.pop_front().expect("window is full");
                ticket.wait().expect("async answer");
            }
            outstanding.push_back(server.submit(u).expect("admitted"));
        }
        for ticket in outstanding {
            ticket.wait().expect("async answer");
        }
    };
    drive(&warm);
    let before = server.stats();
    let t = Instant::now();
    drive(&timed);
    let async_us = us_per(t.elapsed(), timed.len());
    let after = server.stats();
    server.shutdown();
    let batches = (after.batcher.batches - before.batcher.batches) as f64;
    let full = (after.batcher.flush_full - before.batcher.flush_full) as f64;
    let completed = (after.completed - before.completed) as f64;

    // Network tier: the live stack (warmed by its set-up on the same prefix).
    let users: Arc<Vec<u64>> = Arc::new(timed.iter().map(|&u| u as u64).collect());
    let t = Instant::now();
    let r = stack
        .client
        .run_pipelined(users.len() as u64, WINDOW, 0, {
            let users = Arc::clone(&users);
            move |i| users[i as usize]
        })
        .expect("pipelined drive");
    let net_us = us_per(t.elapsed(), timed.len());
    stack.sent += r.offered;

    let q = timed.len() as u64;
    let cold_n = cold.len() as u64;
    vec![
        Metric::new("serve.score_us_per_user", score_us, "us", cold_n),
        Metric::new("serve.topk_us_per_user", top_k_us, "us", cold_n),
        Metric::new("serve.engine_us_per_query", engine_us, "us", q),
        Metric::new("serve.lru_hits", hits, "count", q),
        Metric::new("serve.lru_misses", misses, "count", q),
        Metric::new("serve.lru_hit_ratio", ratio(hits, hits + misses), "ratio", q),
        Metric::new("serve_async.us_per_query", async_us - engine_us, "us", q),
        Metric::new("serve_async.batches", batches, "count", q),
        Metric::new(
            "serve_async.batch_fill",
            ratio(completed, batches),
            "query/batch",
            batches as u64,
        ),
        Metric::new("serve_async.flush_full", full, "count", batches as u64),
        Metric::new("serve_async.flush_full_ratio", ratio(full, batches), "ratio", batches as u64),
        Metric::new("serve_net.wire_us_per_query", net_us - async_us, "us", q),
    ]
}
