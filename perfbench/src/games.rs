//! The game workload `game_msopds`: one Table III MSOPDS game per op,
//! planner-dominated.
//!
//! Each run derives [`SLOTS`] world seeds from `--seed` (`seed * SLOTS +
//! slot`), generates a world and a market per slot, plays one untimed
//! warm-up op, then plays the slots round-robin until the run time is spent.
//! Op cost differs from world to world (where CG converges early an op does
//! about 15% less work), so a run spans many worlds to keep its median steady
//! across seeds.
//!
//! Every outcome is checked: it must repeat bit for bit each time its slot
//! is played, pass the workload's invariants, and — for seeds in the
//! committed reference table — match the reference.
//!
//! The traced run plays each world twice in a row, untraced then with
//! telemetry on, until the run time is spent; per-layer numbers come from
//! the traced plays only, and the overhead compares the two over the same
//! worlds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use msopds_autograd::HvpMode;
use msopds_core::{ActionToggles, MsoConfig, PlannerConfig};
use msopds_gameplay::{play_world, score_world, AttackMethod, GameConfig};
use msopds_recdata::{sample_market, Dataset, DatasetSpec, DemographicsSpec, Market};
use msopds_recsys::pds::PdsConfig;
use msopds_recsys::{Backend, HetRecConfig};
use msopds_telemetry as telemetry;
use rand::SeedableRng;

use crate::stats::{median, ratio, Metric};
use crate::{RunOutput, KERNEL_LANES};

/// Worlds a run rotates through.
pub const SLOTS: u64 = 24;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Absolute tolerance of the reference comparison on r̄, HR@3 and RMSE.
const REFERENCE_TOL: f64 = 1e-6;

/// A game workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct GameSpec {
    pub name: &'static str,
    /// Ciao scale divisor.
    scale: f64,
    method: AttackMethod,
    n_opponents: usize,
}

impl GameSpec {
    pub fn named(name: &str) -> Option<Self> {
        match name {
            // MSOPDS anticipating 2 BOPDS opponents on Ciao/24 (109 × 159).
            "game_msopds" => Some(Self {
                name: "game_msopds",
                scale: 24.0,
                method: AttackMethod::Msopds(ActionToggles::all()),
                n_opponents: 2,
            }),
            _ => None,
        }
    }

    /// The Table III game configuration (the `repro table3` settings),
    /// spelled out here so that a change to the harness defaults cannot
    /// silently change the workload.
    fn game_config(&self, world_seed: u64) -> GameConfig {
        let backend = Backend::Sparse;
        GameConfig {
            victim: HetRecConfig {
                epochs: 50,
                dim: 12,
                attention: true,
                lambda: 1e-2,
                backend,
                ..HetRecConfig::default()
            },
            planner: PlannerConfig {
                mso: MsoConfig {
                    iters: 12,
                    cg_iters: 5,
                    hvp_mode: HvpMode::Exact,
                    ..MsoConfig::default()
                },
                pds: PdsConfig { backend, ..PdsConfig::default() },
            },
            opponent_planner: PlannerConfig {
                mso: MsoConfig { iters: 6, cg_iters: 3, ..MsoConfig::default() },
                pds: PdsConfig { inner_steps: 4, backend, ..PdsConfig::default() },
            },
            attacker_b: 5,
            n_opponents: self.n_opponents,
            opponent_b: 2,
            scale: self.scale,
            seed: world_seed,
            kernel_threads: KERNEL_LANES,
        }
    }

    /// Generates one slot's world and market (the op's whole input).
    fn materialize(&self, world_seed: u64) -> GameInput {
        let data = DatasetSpec::ciao().scaled(self.scale).generate(world_seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(world_seed ^ 0xA11CE);
        let demographics = DemographicsSpec::default().scaled(self.scale);
        let market = sample_market(&data, &demographics, self.n_opponents.max(1), &mut rng);
        GameInput { world_seed, data, market, cfg: self.game_config(world_seed) }
    }

    /// Plays one op: `play_world` then `score_world`, each timed.
    fn play(&self, input: &GameInput) -> OpResult {
        let start = Instant::now();
        let played = play_world(&input.data, &input.market, self.method, &input.cfg);
        let play = start.elapsed();
        let start = Instant::now();
        let outcome = score_world(&played.world, &input.market, self.method, &input.cfg, &played);
        let score = start.elapsed();
        OpResult {
            outcome: Outcome {
                rbar: outcome.avg_rating,
                hr3: outcome.hit_rate_at_3,
                attacker_actions: outcome.attacker_actions as u64,
                opponent_actions: outcome.opponent_actions as u64,
                rmse: outcome.victim_rmse,
            },
            play,
            score,
        }
    }

    /// Workload invariants every outcome must satisfy, seed or no seed.
    fn plausible(&self, o: &Outcome) -> bool {
        let finite = o.rbar.is_finite() && o.rmse.is_finite() && (0.0..=1.0).contains(&o.hr3);
        let opponents_acted = (o.opponent_actions > 0) == (self.n_opponents > 0);
        finite && o.rmse > 0.0 && o.rmse < 2.0 && o.attacker_actions > 0 && opponents_acted
    }
}

struct GameInput {
    world_seed: u64,
    data: Dataset,
    market: Market,
    cfg: GameConfig,
}

/// The checked outputs of one game.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    pub rbar: f64,
    pub hr3: f64,
    pub attacker_actions: u64,
    pub opponent_actions: u64,
    pub rmse: f64,
}

impl Outcome {
    fn bit_equal(&self, other: &Outcome) -> bool {
        self.rbar.to_bits() == other.rbar.to_bits()
            && self.hr3.to_bits() == other.hr3.to_bits()
            && self.rmse.to_bits() == other.rmse.to_bits()
            && self.attacker_actions == other.attacker_actions
            && self.opponent_actions == other.opponent_actions
    }

    fn matches_reference(&self, r: &Outcome) -> bool {
        (self.rbar - r.rbar).abs() <= REFERENCE_TOL
            && (self.hr3 - r.hr3).abs() <= REFERENCE_TOL
            && (self.rmse - r.rmse).abs() <= REFERENCE_TOL
            && self.attacker_actions == r.attacker_actions
            && self.opponent_actions == r.opponent_actions
    }
}

struct OpResult {
    outcome: Outcome,
    play: Duration,
    score: Duration,
}

/// Reference outcomes keyed by world seed, parsed from the committed table.
fn reference_table() -> BTreeMap<u64, Outcome> {
    let text = include_str!("../reference/game_msopds.tsv");
    let mut table = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let parsed = (|| -> Option<(u64, Outcome)> {
            Some((
                f.first()?.parse().ok()?,
                Outcome {
                    rbar: f.get(1)?.parse().ok()?,
                    hr3: f.get(2)?.parse().ok()?,
                    attacker_actions: f.get(3)?.parse().ok()?,
                    opponent_actions: f.get(4)?.parse().ok()?,
                    rmse: f.get(5)?.parse().ok()?,
                },
            ))
        })();
        let (world_seed, outcome) =
            parsed.unwrap_or_else(|| panic!("malformed reference line {line:?}"));
        table.insert(world_seed, outcome);
    }
    table
}

fn reference_path(spec: &GameSpec) -> String {
    format!("{}/reference/{}.tsv", env!("CARGO_MANIFEST_DIR"), spec.name)
}

/// Judges every op outcome of one run, warm-up ops included.
struct Checker {
    spec: GameSpec,
    reference: BTreeMap<u64, Outcome>,
    first: BTreeMap<u64, Outcome>,
    checked: u64,
    failures: u64,
}

impl Checker {
    fn new(spec: GameSpec) -> Self {
        let reference = reference_table();
        Self { spec, reference, first: BTreeMap::new(), checked: 0, failures: 0 }
    }

    fn check(&mut self, world_seed: u64, o: &Outcome) {
        self.checked += 1;
        let first = *self.first.entry(world_seed).or_insert(*o);
        let mut ok = self.spec.plausible(o);
        if !first.bit_equal(o) {
            eprintln!(
                "perfbench: world {world_seed}: outcome changed between plays: {first:?} vs {o:?}"
            );
            ok = false;
        }
        if let Some(r) = self.reference.get(&world_seed) {
            if !o.matches_reference(r) {
                eprintln!(
                    "perfbench: world {world_seed}: outcome {o:?} differs from reference {r:?}"
                );
                ok = false;
            }
        }
        if !ok {
            self.failures += 1;
        }
    }

    fn has_reference(&self, world_seed: u64) -> bool {
        self.reference.contains_key(&world_seed)
    }
}

/// Inputs for every slot plus one untimed warm-up op: one set-up.
fn set_up(
    spec: &GameSpec,
    seed: u64,
    checker: &mut Checker,
) -> (Vec<GameInput>, Duration, Duration) {
    let start = Instant::now();
    let inputs: Vec<GameInput> = (0..SLOTS)
        .map(|slot| spec.materialize(seed.wrapping_mul(SLOTS).wrapping_add(slot)))
        .collect();
    let build = start.elapsed();
    let warm = spec.play(&inputs[0]);
    checker.check(inputs[0].world_seed, &warm.outcome);
    (inputs, start.elapsed(), build)
}

pub fn run(spec: GameSpec, seed: u64, seconds: u64, trace: bool) -> RunOutput {
    telemetry::set_enabled(false);
    let mut checker = Checker::new(spec);
    let budget = Duration::from_secs(seconds);
    let mut out = RunOutput::default();

    let setups = if trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..setups {
        drop(std::mem::take(&mut inputs));
        let (fresh, total, build) = set_up(&spec, seed, &mut checker);
        inputs = fresh;
        setup_s.push(total.as_secs_f64());
        build_s.push(build.as_secs_f64());
    }
    let referenced = inputs.iter().filter(|i| checker.has_reference(i.world_seed)).count();
    if referenced < inputs.len() {
        eprintln!(
            "perfbench: seed {seed} has no committed reference for {} of {} worlds; those ops are checked for determinism and invariants only",
            inputs.len() - referenced,
            inputs.len()
        );
    }

    let mut op_ms = Vec::new();
    let mut play_ms = Vec::new();
    let mut score_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut outcomes = Vec::new();
    let mut timed = Duration::ZERO;
    let play_slot = |input: &GameInput, checker: &mut Checker| -> OpResult {
        let r = spec.play(input);
        checker.check(input.world_seed, &r.outcome);
        r
    };

    if !trace {
        // An op is started only if it is expected to end within half an op
        // of the budget, so the run measures `seconds` give or take half an op.
        let start = Instant::now();
        for input in inputs.iter().cycle() {
            let r = play_slot(input, &mut checker);
            timed += r.play + r.score;
            op_ms.push((r.play + r.score).as_secs_f64() * 1e3);
            outcomes.push(r.outcome);
            let per_op = start.elapsed() / op_ms.len() as u32;
            if start.elapsed() + per_op / 2 >= budget {
                break;
            }
        }
        let ops = op_ms.len() as u64;
        out.attempted = checker.checked;
        out.failed = checker.failures;
        out.push(Metric::new("setup_s", median(&setup_s), "s", setups as u64));
        out.push(Metric::new("ops_per_s", ratio(ops as f64, timed.as_secs_f64()), "1/s", ops));
        out.push(Metric::new("op_p50_ms", median(&op_ms), "ms", ops));
        out.detail(
            "outcome.target_rbar_mean",
            outcomes.iter().map(|o| o.rbar).sum::<f64>() / ops as f64,
        );
        out.detail("recdata.world_build_s", median(&build_s));
        return out;
    }

    telemetry::reset();
    let start = Instant::now();
    for input in inputs.iter().cycle() {
        let r = play_slot(input, &mut checker);
        op_ms.push((r.play + r.score).as_secs_f64() * 1e3);
        play_ms.push(r.play.as_secs_f64() * 1e3);
        score_ms.push(r.score.as_secs_f64() * 1e3);
        outcomes.push(r.outcome);
        telemetry::set_enabled(true);
        let r = play_slot(input, &mut checker);
        telemetry::set_enabled(false);
        traced_ms.push((r.play + r.score).as_secs_f64() * 1e3);
        if start.elapsed() >= budget {
            break;
        }
    }
    let report = telemetry::report();
    let traced_ops = traced_ms.len() as u64;
    let per_op = |v: f64| v / traced_ops as f64;
    let span_ms = |suffix: &str| -> f64 {
        per_op(
            report
                .spans
                .iter()
                .filter(|s| s.path == suffix || s.path.ends_with(&format!("/{suffix}")))
                .map(|s| s.total_ns as f64 / 1e6)
                .sum(),
        )
    };
    let counter = |name: &str| report.counter(name).map_or(0, |c| c.value) as f64;

    out.attempted = checker.checked;
    out.failed = checker.failures;
    let untraced_ops = op_ms.len() as u64;
    out.push(Metric::new("trace.ops", traced_ops as f64, "count", traced_ops));
    out.push(Metric::new(
        "trace.overhead_pct",
        (median(&traced_ms) / median(&op_ms) - 1.0) * 100.0,
        "%",
        traced_ops + untraced_ops,
    ));
    out.push(Metric::new("recdata.world_build_s", median(&build_s), "s", build_s.len() as u64));
    out.push(Metric::new("gameplay.play_world_ms", median(&play_ms), "ms", untraced_ops));
    out.push(Metric::new("gameplay.score_world_ms", median(&score_ms), "ms", untraced_ops));
    let n = outcomes.len() as f64;
    out.push(Metric::new(
        "gameplay.target_rbar",
        outcomes.iter().map(|o| o.rbar).sum::<f64>() / n,
        "rating",
        untraced_ops,
    ));
    out.push(Metric::new(
        "gameplay.victim_rmse",
        outcomes.iter().map(|o| o.rmse).sum::<f64>() / n,
        "rating",
        untraced_ops,
    ));
    out.push(Metric::new("core.attacker_plan_ms", span_ms("attacker_plan"), "ms", traced_ops));
    out.push(Metric::new("core.opponent_plans_ms", span_ms("opponent_plans"), "ms", traced_ops));
    out.push(Metric::new(
        "core.mso.iterations",
        per_op(counter("core.mso.iterations")),
        "count/op",
        traced_ops,
    ));
    out.push(Metric::new("core.mso.build_ms", span_ms("mso/iter/build"), "ms", traced_ops));
    out.push(Metric::new("core.mso.grads_ms", span_ms("mso/iter/grads"), "ms", traced_ops));
    out.push(Metric::new(
        "core.mso.correction_ms",
        span_ms("mso/iter/correction"),
        "ms",
        traced_ops,
    ));
    out.push(Metric::new(
        "recsys.pds.unroll_steps",
        per_op(counter("recsys.pds.unroll_steps")),
        "count/op",
        traced_ops,
    ));
    out.push(Metric::new("autograd.cg_multi_ms", span_ms("cg_multi"), "ms", traced_ops));
    out.push(Metric::new(
        "autograd.cg.solves",
        per_op(counter("autograd.cg.solves")),
        "count/op",
        traced_ops,
    ));
    out.push(Metric::new(
        "autograd.cg.iterations",
        per_op(counter("autograd.cg.iterations")),
        "count/op",
        traced_ops,
    ));
    out.push(Metric::new(
        "autograd.tape.ops",
        per_op(counter("autograd.tape.ops")),
        "count/op",
        traced_ops,
    ));
    let (hits, misses) =
        (counter("autograd.buffer_pool.hits"), counter("autograd.buffer_pool.misses"));
    out.push(Metric::new("autograd.pool.hits", per_op(hits), "count/op", traced_ops));
    out.push(Metric::new("autograd.pool.misses", per_op(misses), "count/op", traced_ops));
    out.push(Metric::new(
        "autograd.pool.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        traced_ops,
    ));
    let epochs = counter("recsys.hetrec.epochs");
    let epoch_ns: f64 = report
        .spans
        .iter()
        .filter(|s| s.path.ends_with("hetrec_fit/epoch"))
        .map(|s| s.total_ns as f64)
        .sum();
    out.push(Metric::new(
        "recsys.hetrec.epoch_ms",
        ratio(epoch_ns / 1e6, epochs),
        "ms",
        epochs as u64,
    ));
    out.push(Metric::new("recsys.hetrec.epochs", per_op(epochs), "count/op", traced_ops));
    let (lru_hits, lru_misses) =
        (counter("recsys.adjacency_lru.hits"), counter("recsys.adjacency_lru.misses"));
    out.push(Metric::new("recsys.adjacency_lru.hits", per_op(lru_hits), "count/op", traced_ops));
    out.push(Metric::new(
        "recsys.adjacency_lru.misses",
        per_op(lru_misses),
        "count/op",
        traced_ops,
    ));
    out.push(Metric::new(
        "recsys.adjacency_lru.hit_ratio",
        ratio(lru_hits, lru_hits + lru_misses),
        "ratio",
        traced_ops,
    ));
    out
}

/// Plays every slot of seeds `0..n_seeds` once and rewrites the reference
/// table. Run it only after a deliberate numerics change.
pub fn bless(spec: GameSpec, n_seeds: u64) -> std::io::Result<()> {
    let mut text = format!(
        "# Reference outcomes of {} (world seed = seed * {SLOTS} + slot).\n# world_seed\ttarget_rbar\thr3\tattacker_actions\topponent_actions\tvictim_rmse\n",
        spec.name
    );
    for world_seed in 0..n_seeds * SLOTS {
        let o = spec.play(&spec.materialize(world_seed)).outcome;
        assert!(spec.plausible(&o), "world {world_seed}: implausible outcome {o:?}");
        eprintln!("perfbench bless {}: world {world_seed}: {o:?}", spec.name);
        text.push_str(&format!(
            "{world_seed}\t{:?}\t{:?}\t{}\t{}\t{:?}\n",
            o.rbar, o.hr3, o.attacker_actions, o.opponent_actions, o.rmse
        ));
    }
    std::fs::write(reference_path(&spec), text)
}
