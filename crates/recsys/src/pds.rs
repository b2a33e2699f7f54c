//! Progressive Differentiable Surrogate (§IV-C, Algorithm 1 steps 2–7).
//!
//! The surrogate is a mean-aggregation GNN recommender whose *training run is
//! recorded on the autodiff tape*:
//!
//! * candidate **edge** actions enter the graph convolution of eq. (15) as
//!   adjacency entries holding their binarized importance value X̂ (real edges
//!   enter with the `1_C` default of 1);
//! * candidate **rating** actions enter the training loss of eq. (16) as
//!   X̂-weighted squared-error terms toward the preset rating r̂;
//! * the inner loop performs `L` differentiable SGD steps
//!   `θ⁽ˡ⁺¹⁾ = θ⁽ˡ⁾ − η·∇_θ 𝓛`, with the gradient nodes kept on the tape.
//!
//! Because *every* element of X̂ participates (selected or not), first- and
//! second-order derivatives with respect to the whole importance vector are
//! available by backpropagation through the recorded process — exactly the
//! quantities Algorithm 1 steps 8–10 consume.

use std::sync::Arc;

use msopds_autograd::{Tape, Tensor, Var};
use msopds_faultline as faultline;
use msopds_recdata::{Dataset, PoisonAction};
use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// Unrolled differentiable SGD steps recorded across all PDS builds.
static PDS_UNROLL_STEPS: telemetry::Counter = telemetry::Counter::new("recsys.pds.unroll_steps");
/// Completed PDS surrogate builds.
static PDS_BUILDS: telemetry::Counter = telemetry::Counter::new("recsys.pds.builds");
/// Unroll steps where the loss or a parameter gradient went non-finite.
static PDS_NONFINITE_STEPS: telemetry::Counter =
    telemetry::Counter::new("recsys.pds.nonfinite_steps");

use crate::bias::{pds_biases, CandidateRatings, DEFAULT_DAMPING};
use crate::convolve::mean_convolve;
use crate::graphops::{Backend, EdgePatch, GraphOps};
use crate::hetrec::rating_triplets;

/// What the unrolled trainer does when a step's loss or parameter gradient
/// goes non-finite (overflow in the recorded SGD, an injected NaN, …).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NonFinitePolicy {
    /// Stop unrolling at the offending step; the surrogate keeps the last
    /// finite parameters. Conservative and fully deterministic — the default.
    #[default]
    Abort,
    /// Skip the offending SGD update but keep stepping (rescues *transient*
    /// corruption; a persistent one degenerates into `Abort` with extra
    /// recorded steps).
    SkipStep,
    /// Sanitize the offending gradients — NaN/±∞ → 0, magnitudes clamped to
    /// [`GRAD_CLAMP_LIMIT`] — and apply the update. Keeps training moving at
    /// the cost of cutting higher-order X̂-derivatives through the sanitized
    /// gradient for that step.
    Clamp,
}

/// Magnitude bound applied by [`NonFinitePolicy::Clamp`].
pub const GRAD_CLAMP_LIMIT: f64 = 1e6;

/// Surrogate hyperparameters (§VI-A.7: `L = 5` inner steps).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PdsConfig {
    /// Embedding dimensionality of the surrogate.
    pub dim: usize,
    /// Inner training steps `L`.
    pub inner_steps: usize,
    /// Inner SGD learning rate.
    pub inner_lr: f64,
    /// L2 regularization λ (eq. 1).
    pub lambda: f64,
    /// Embedding init std.
    pub init_std: f64,
    /// Parameter init seed.
    pub seed: u64,
    /// Reaction to a non-finite loss/gradient during the unroll.
    pub nonfinite_policy: NonFinitePolicy,
    /// Graph-operation backend for the poisoned convolutions of eq. (15).
    pub backend: Backend,
}

impl Default for PdsConfig {
    fn default() -> Self {
        Self {
            dim: 8,
            inner_steps: 5,
            inner_lr: 0.5,
            lambda: 1e-4,
            init_std: 0.1,
            seed: 0,
            nonfinite_policy: NonFinitePolicy::Abort,
            backend: Backend::from_env(),
        }
    }
}

/// One player's candidate set with binarized importance values.
#[derive(Clone, Debug)]
pub struct PlayerInput<'a> {
    /// Candidate poisoning actions, in importance-vector order.
    pub candidates: &'a [PoisonAction],
    /// Binarized importance vector X̂ (same length as `candidates`).
    pub xhat: Tensor,
}

/// The recorded surrogate: handles into the tape for every quantity the MSO
/// update rules differentiate.
pub struct PdsBuild<'t> {
    /// X̂ leaf per player (differentiate losses w.r.t. these).
    pub xhats: Vec<Var<'t>>,
    /// Final user embeddings h_u^f after `L` inner steps.
    pub user_final: Var<'t>,
    /// Final item embeddings h_i^f after `L` inner steps.
    pub item_final: Var<'t>,
    /// Trained per-user bias `[n_users]`.
    pub user_bias: Var<'t>,
    /// Trained per-item bias `[n_items]`.
    pub item_bias: Var<'t>,
    /// Inner-loop training loss after each step (diagnostics).
    pub inner_losses: Vec<f64>,
    /// Numeric-guardrail report for this build.
    pub numeric: PdsNumeric,
}

/// What the non-finite guardrails saw during one PDS build.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PdsNumeric {
    /// Unroll steps (0-based) whose loss or gradients were non-finite.
    pub nonfinite_steps: Vec<usize>,
    /// Step the unroll stopped at, when [`NonFinitePolicy::Abort`] fired.
    pub aborted_at: Option<usize>,
}

impl<'t> PdsBuild<'t> {
    /// The differentiable score model over the trained surrogate.
    pub fn scores(&self) -> crate::losses::Scores<'t> {
        crate::losses::Scores {
            user_final: self.user_final,
            item_final: self.item_final,
            user_bias: self.user_bias,
            item_bias: self.item_bias,
        }
    }
}

/// Records a full PDS training run on `tape`.
///
/// `data` must already contain every fake account the players use, but *not*
/// the candidate edges/ratings — those are injected here, modulated by X̂
/// (Algorithm 1 step 2 inserts all candidates; the binarized values regulate
/// them during training).
///
/// # Panics
/// Panics if an X̂ length disagrees with its candidate list or the dataset has
/// no ratings.
pub fn build_pds<'t>(
    tape: &'t Tape,
    data: &Dataset,
    players: &[PlayerInput<'_>],
    cfg: &PdsConfig,
) -> PdsBuild<'t> {
    let _span = telemetry::span("build_pds");
    PDS_BUILDS.incr();
    assert!(!data.ratings.is_empty(), "PDS needs a non-empty rating matrix");
    for p in players {
        assert_eq!(p.candidates.len(), p.xhat.numel(), "X̂ length must match the candidate count");
    }
    let n_users = data.n_users();
    let n_items = data.n_items();

    // ---- partition candidates per player -------------------------------------
    struct Partition {
        social: Vec<(usize, (usize, usize))>,
        item: Vec<(usize, (usize, usize))>,
        ratings: Vec<(usize, (usize, usize, f64))>,
    }
    let partitions: Vec<Partition> = players
        .iter()
        .map(|p| {
            let mut part = Partition { social: Vec::new(), item: Vec::new(), ratings: Vec::new() };
            for (xi, action) in p.candidates.iter().enumerate() {
                match *action {
                    PoisonAction::SocialEdge { a, b } => {
                        if !data.social.has_edge(a as usize, b as usize) {
                            part.social.push((xi, (a as usize, b as usize)));
                        }
                    }
                    PoisonAction::ItemEdge { a, b } => {
                        if !data.item_graph.has_edge(a as usize, b as usize) {
                            part.item.push((xi, (a as usize, b as usize)));
                        }
                    }
                    PoisonAction::Rating { user, item, value } => {
                        part.ratings.push((xi, (user as usize, item as usize, value)));
                    }
                }
            }
            part
        })
        .collect();

    // ---- fully-poisoned graphs 𝒢′ for the constant degree normalization ------
    let all_social: Vec<(usize, usize)> =
        partitions.iter().flat_map(|p| p.social.iter().map(|&(_, e)| e)).collect();
    let all_item: Vec<(usize, usize)> =
        partitions.iter().flat_map(|p| p.item.iter().map(|&(_, e)| e)).collect();
    let g_u_prime = data.social.with_edges(n_users, &all_social);
    let g_i_prime = data.item_graph.with_edges(n_items, &all_item);

    // ---- tape leaves ----------------------------------------------------------
    let xhats: Vec<Var<'t>> = players.iter().map(|p| tape.leaf(p.xhat.clone())).collect();

    let gops = GraphOps::new(cfg.backend);
    let social_patches: Vec<EdgePatch<'_, 't>> = partitions
        .iter()
        .zip(&xhats)
        .map(|(part, &xh)| EdgePatch { candidates: &part.social, xhat: xh })
        .collect();
    let item_patches: Vec<EdgePatch<'_, 't>> = partitions
        .iter()
        .zip(&xhats)
        .map(|(part, &xh)| EdgePatch { candidates: &part.item, xhat: xh })
        .collect();
    let a_u = gops.poisoned_adjacency(tape, &data.social, &social_patches);
    let a_i = gops.poisoned_adjacency(tape, &data.item_graph, &item_patches);
    let inv_du = gops.inv_degree(tape, &g_u_prime);
    let inv_di = gops.inv_degree(tape, &g_i_prime);

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed);
    let d = cfg.dim;
    let mut hu = tape.leaf(Tensor::randn(&[n_users, d], cfg.init_std, &mut rng));
    let mut hi = tape.leaf(Tensor::randn(&[n_items, d], cfg.init_std, &mut rng));
    let glorot_std = (2.0 / (3.0 * d as f64)).sqrt();
    let mut wu = tape.leaf(Tensor::randn(&[2 * d, d], glorot_std, &mut rng));
    let mut wi = tape.leaf(Tensor::randn(&[2 * d, d], glorot_std, &mut rng));

    // ---- real-rating index tensors ---------------------------------------------
    let (ru, ri, rv) = rating_triplets(data);
    let n_real = ru.len();
    let ru = Arc::new(ru);
    let ri = Arc::new(ri);
    let target = Tensor::from_vec(rv, &[n_real]);

    // Candidate-rating index tensors per player.
    struct RatingIdx {
        x_idx: Arc<Vec<usize>>,
        users: Arc<Vec<usize>>,
        items: Arc<Vec<usize>>,
        rhat: Tensor,
    }
    let mu = data.ratings.global_mean().expect("non-empty ratings");
    let rating_idx: Vec<Option<RatingIdx>> = partitions
        .iter()
        .map(|part| {
            if part.ratings.is_empty() {
                return None;
            }
            let x_idx = Arc::new(part.ratings.iter().map(|&(xi, _)| xi).collect::<Vec<_>>());
            let users = Arc::new(part.ratings.iter().map(|&(_, (u, _, _))| u).collect::<Vec<_>>());
            let items = Arc::new(part.ratings.iter().map(|&(_, (_, i, _))| i).collect::<Vec<_>>());
            let rhat = Tensor::from_vec(
                part.ratings.iter().map(|&(_, (_, _, r))| r).collect::<Vec<_>>(),
                &[part.ratings.len()],
            );
            Some(RatingIdx { x_idx, users, items, rhat })
        })
        .collect();

    // X̂-differentiable damped baseline biases (see crate::bias): the poison
    // ratings shift b_u/b_i in closed form, exactly as they would shift the
    // retrained victim's baselines.
    let bias_candidates: Vec<CandidateRatings> = rating_idx
        .iter()
        .flatten()
        .map(|idx| CandidateRatings {
            x_idx: Arc::clone(&idx.x_idx),
            users: Arc::clone(&idx.users),
            items: Arc::clone(&idx.items),
            residuals: idx.rhat.map(|r| r - mu),
        })
        .collect();
    let bias_pairs: Vec<(Var<'t>, &CandidateRatings)> = {
        // Pair each player's xhat leaf with their candidate ratings, skipping
        // players that have none (flatten order matches rating_idx order).
        let mut pairs = Vec::new();
        let mut k = 0;
        for (p, idx) in rating_idx.iter().enumerate() {
            if idx.is_some() {
                pairs.push((xhats[p], &bias_candidates[k]));
                k += 1;
            }
        }
        pairs
    };
    let (bu, bi) = pds_biases(tape, data, &bias_pairs, mu, DEFAULT_DAMPING);

    // ---- unrolled differentiable inner loop (Algorithm 1 steps 5–6) ----------
    // Predictions are anchored at μ + b_u + b_i (see crate::bias); the
    // embeddings fit the residual structure.
    let norm = 1.0 / n_real as f64;
    let mut inner_losses = Vec::with_capacity(cfg.inner_steps);
    let mut numeric = PdsNumeric::default();
    for step in 0..cfg.inner_steps {
        let _step_span = telemetry::span("unroll_step");
        PDS_UNROLL_STEPS.incr();
        faultline::fault_point!("pds.unroll");
        let uf = mean_convolve(hu, &a_u, inv_du, wu);
        let if_ = mean_convolve(hi, &a_i, inv_di, wi);

        // Real-rating MSE term of eq. (16).
        let pred = uf
            .gather_rows(Arc::clone(&ru))
            .rowwise_dot(if_.gather_rows(Arc::clone(&ri)))
            .add(bu.gather_elems(Arc::clone(&ru)))
            .add(bi.gather_elems(Arc::clone(&ri)))
            .add_scalar(mu);
        let mut loss = pred.sub(tape.constant(target.clone())).square().sum().scale(norm);

        // X̂-modulated poison-rating terms of eq. (16).
        for (p, idx) in rating_idx.iter().enumerate() {
            let Some(idx) = idx else { continue };
            let xv = xhats[p].gather_elems(Arc::clone(&idx.x_idx));
            let predc = uf
                .gather_rows(Arc::clone(&idx.users))
                .rowwise_dot(if_.gather_rows(Arc::clone(&idx.items)))
                .add(bu.gather_elems(Arc::clone(&idx.users)))
                .add(bi.gather_elems(Arc::clone(&idx.items)))
                .add_scalar(mu);
            let term =
                predc.sub(tape.constant(idx.rhat.clone())).square().mul(xv).sum().scale(norm);
            loss = loss.add(term);
        }

        // L2 regularization (eq. 1).
        let reg = hu
            .square()
            .sum()
            .add(hi.square().sum())
            .add(wu.square().sum())
            .add(wi.square().sum())
            .scale(cfg.lambda);
        let loss = loss.add(reg);
        // The fault site corrupts only the *checked* value, which is exactly
        // what an upstream overflow looks like to the guardrail.
        let loss_item = faultline::corrupt_f64("pds.unroll.loss", loss.item());
        inner_losses.push(loss_item);

        // Differentiable SGD step: the gradient nodes stay on the tape.
        let mut grads = tape.grad_vars(loss, &[hu, hi, wu, wi]);

        // ---- non-finite guardrail (graceful degradation, never NaN-out) ----
        let bad_step = !loss_item.is_finite() || grads.iter().any(|g| !g.value().all_finite());
        if bad_step {
            PDS_NONFINITE_STEPS.incr();
            numeric.nonfinite_steps.push(step);
            match cfg.nonfinite_policy {
                NonFinitePolicy::Abort => {
                    numeric.aborted_at = Some(step);
                    break; // keep the last finite parameters
                }
                NonFinitePolicy::SkipStep => continue, // drop this update only
                NonFinitePolicy::Clamp => {
                    for g in grads.iter_mut() {
                        let val = g.value();
                        if !val.all_finite() {
                            // Sanitized gradients re-enter as constants: the
                            // step still trains, but X̂ no longer differentiates
                            // through this (already meaningless) gradient.
                            *g = tape.constant(val.map(|v| {
                                if v.is_finite() {
                                    v.clamp(-GRAD_CLAMP_LIMIT, GRAD_CLAMP_LIMIT)
                                } else {
                                    0.0
                                }
                            }));
                        }
                    }
                }
            }
        }

        hu = hu.sub(grads[0].scale(cfg.inner_lr));
        hi = hi.sub(grads[1].scale(cfg.inner_lr));
        wu = wu.sub(grads[2].scale(cfg.inner_lr));
        wi = wi.sub(grads[3].scale(cfg.inner_lr));
    }

    // Final embeddings with the trained parameters (Algorithm 1 step 7).
    let user_final = mean_convolve(hu, &a_u, inv_du, wu);
    let item_final = mean_convolve(hi, &a_i, inv_di, wi);

    PdsBuild { xhats, user_final, item_final, user_bias: bu, item_bias: bi, inner_losses, numeric }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_recdata::DatasetSpec;

    fn micro() -> Dataset {
        DatasetSpec::micro().generate(5)
    }

    fn cfg() -> PdsConfig {
        PdsConfig { inner_steps: 4, ..Default::default() }
    }

    #[test]
    fn inner_training_reduces_loss() {
        let data = micro();
        let tape = Tape::new();
        let build = build_pds(&tape, &data, &[], &cfg());
        assert_eq!(build.inner_losses.len(), 4);
        assert!(
            build.inner_losses.last().unwrap() < &build.inner_losses[0],
            "inner losses {:?}",
            build.inner_losses
        );
    }

    #[test]
    fn gradient_reaches_rating_candidates() {
        let data = micro();
        let target_item = 3u32;
        // Candidates are 5-star ratings *from the audience itself*, so their
        // promotion effect on the IA loss has a determined (negative) sign.
        let users: Vec<usize> = (0..10).collect();
        let candidates: Vec<PoisonAction> = users
            .iter()
            .map(|&u| PoisonAction::Rating { user: u as u32, item: target_item, value: 5.0 })
            .collect();
        let tape = Tape::new();
        let build = build_pds(
            &tape,
            &data,
            &[PlayerInput { candidates: &candidates, xhat: Tensor::zeros(&[10]) }],
            &cfg(),
        );
        // Gradient must be non-zero even though every candidate is unselected
        // (x̂ = 0) — the key PDS property (§IV-C).
        let loss = crate::losses::ia_loss(&build.scores(), &users, target_item as usize);
        let g = tape.grad(loss, &[build.xhats[0]]).remove(0);
        assert!(g.norm() > 1e-12, "no gradient for unselected rating candidates");
        // Promoting with 5-star ratings reduces the IA loss in aggregate.
        assert!(
            g.sum() < 0.0,
            "5-star candidates should have negative mean gradient: {:?}",
            g.to_vec()
        );
    }

    #[test]
    fn tape_grows_linearly_in_inner_steps() {
        // Step t's backward walks step t only: steps 0..t cannot depend on
        // θ_t, so the liveness-pruned reverse scan never visits them. Every
        // step therefore records the same number of nodes, and four more
        // steps cost what the first four did (a backward that walked every
        // earlier step would make the second delta far larger).
        let data = micro();
        let candidates: Vec<PoisonAction> =
            (0..10).map(|u| PoisonAction::Rating { user: u, item: 3, value: 5.0 }).collect();
        let tape_len = |inner_steps: usize| {
            let tape = Tape::new();
            build_pds(
                &tape,
                &data,
                &[PlayerInput { candidates: &candidates, xhat: Tensor::zeros(&[10]) }],
                &PdsConfig { inner_steps, ..cfg() },
            );
            tape.len()
        };
        let (l0, l4, l8) = (tape_len(0), tape_len(4), tape_len(8));
        let (first, second) = (l4 - l0, l8 - l4);
        assert!(
            first.abs_diff(second) <= 4,
            "unroll steps 0..4 added {first} nodes, 4..8 {second}"
        );
    }

    #[test]
    fn gradient_reaches_edge_candidates() {
        let data = micro();
        // Social edge between two users and an item edge to the target item.
        let (a, b) = {
            let mut found = (0, 1);
            'outer: for a in 0..data.n_users() {
                for b in (a + 1)..data.n_users() {
                    if !data.social.has_edge(a, b) {
                        found = (a, b);
                        break 'outer;
                    }
                }
            }
            found
        };
        let candidates = vec![
            PoisonAction::SocialEdge { a: a as u32, b: b as u32 },
            PoisonAction::ItemEdge { a: 0, b: 5 },
        ];
        let tape = Tape::new();
        let build = build_pds(
            &tape,
            &data,
            &[PlayerInput { candidates: &candidates, xhat: Tensor::zeros(&[2]) }],
            &cfg(),
        );
        let users: Vec<usize> = (0..8).collect();
        let loss = crate::losses::ia_loss(&build.scores(), &users, 5);
        let g = tape.grad(loss, &[build.xhats[0]]).remove(0);
        assert!(g.get(0).abs() > 0.0 || g.get(1).abs() > 0.0, "no gradient for edge candidates");
        assert!(g.get(1).abs() > 0.0, "item edge to target must matter: {:?}", g.to_vec());
    }

    #[test]
    fn selected_rating_candidate_raises_target_score() {
        let data = micro();
        let target_item = 2usize;
        let users: Vec<usize> = (0..15).collect();
        let candidates: Vec<PoisonAction> = users
            .iter()
            .map(|&u| PoisonAction::Rating { user: u as u32, item: target_item as u32, value: 5.0 })
            .collect();

        let score_with = |xval: f64| -> f64 {
            let tape = Tape::new();
            let build = build_pds(
                &tape,
                &data,
                &[PlayerInput {
                    candidates: &candidates,
                    xhat: Tensor::full(&[candidates.len()], xval),
                }],
                &PdsConfig { inner_steps: 5, ..Default::default() },
            );
            -crate::losses::ia_loss(&build.scores(), &users, target_item).item()
        };
        let off = score_with(0.0);
        let on = score_with(1.0);
        assert!(on > off, "selected 5-star ratings must raise the mean score: {off} -> {on}");
    }

    #[test]
    fn two_players_have_separate_leaves() {
        let data = micro();
        let audience: Vec<usize> = (0..8).collect();
        // Both players act through audience users on the same item but with
        // opposite preset ratings, so their aggregate gradients have opposite
        // determined signs.
        let c1: Vec<PoisonAction> = audience
            .iter()
            .map(|&u| PoisonAction::Rating { user: u as u32, item: 1, value: 5.0 })
            .collect();
        let c2: Vec<PoisonAction> = audience
            .iter()
            .map(|&u| PoisonAction::Rating { user: u as u32, item: 1, value: 1.0 })
            .collect();
        let tape = Tape::new();
        let build = build_pds(
            &tape,
            &data,
            &[
                PlayerInput { candidates: &c1, xhat: Tensor::zeros(&[8]) },
                PlayerInput { candidates: &c2, xhat: Tensor::zeros(&[8]) },
            ],
            &cfg(),
        );
        assert_eq!(build.xhats.len(), 2);
        let loss = crate::losses::ia_loss(&build.scores(), &audience, 1);
        let g = tape.grad(loss, &[build.xhats[0], build.xhats[1]]);
        // Opposite rating values push the loss in opposite directions.
        assert!(g[0].sum() < 0.0, "5-star grads should be negative in sum, got {}", g[0].sum());
        assert!(g[1].sum() > 0.0, "1-star grads should be positive in sum, got {}", g[1].sum());
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn xhat_length_mismatch_panics() {
        let data = micro();
        let c = vec![PoisonAction::Rating { user: 0, item: 1, value: 5.0 }];
        let tape = Tape::new();
        let _ = build_pds(
            &tape,
            &data,
            &[PlayerInput { candidates: &c, xhat: Tensor::zeros(&[3]) }],
            &cfg(),
        );
    }

    fn params_finite(build: &PdsBuild) -> bool {
        build.user_final.value().all_finite()
            && build.item_final.value().all_finite()
            && build.user_bias.value().all_finite()
            && build.item_bias.value().all_finite()
    }

    fn divergent_cfg(policy: NonFinitePolicy) -> PdsConfig {
        // A catastrophically large inner learning rate overflows the squared
        // error within a couple of unrolled steps — a cheap, deterministic
        // stand-in for real-world numeric blowups.
        PdsConfig {
            inner_steps: 6,
            inner_lr: 1e150,
            nonfinite_policy: policy,
            ..Default::default()
        }
    }

    #[test]
    fn healthy_build_reports_clean_numerics() {
        let data = micro();
        let tape = Tape::new();
        let build = build_pds(&tape, &data, &[], &cfg());
        assert!(build.numeric.nonfinite_steps.is_empty(), "{:?}", build.numeric);
        assert_eq!(build.numeric.aborted_at, None);
        assert!(params_finite(&build));
    }

    #[test]
    fn abort_policy_stops_at_first_nonfinite_step() {
        let data = micro();
        let tape = Tape::new();
        let build = build_pds(&tape, &data, &[], &divergent_cfg(NonFinitePolicy::Abort));
        let at = build.numeric.aborted_at.expect("divergent lr must trip the guardrail");
        assert_eq!(build.numeric.nonfinite_steps, vec![at]);
        // The loop broke before applying the poisoned update.
        assert_eq!(build.inner_losses.len(), at + 1);
        assert!(params_finite(&build), "abort must keep the last finite parameters");
    }

    #[test]
    fn skip_step_policy_completes_with_finite_parameters() {
        let data = micro();
        let tape = Tape::new();
        let build = build_pds(&tape, &data, &[], &divergent_cfg(NonFinitePolicy::SkipStep));
        assert_eq!(build.numeric.aborted_at, None);
        assert!(!build.numeric.nonfinite_steps.is_empty());
        // Every step still records a loss sample; bad ones only skip the update.
        assert_eq!(build.inner_losses.len(), 6);
        assert!(params_finite(&build), "skipped updates must never poison parameters");
    }

    #[test]
    fn clamp_policy_sanitizes_gradients_and_finishes() {
        let data = micro();
        let tape = Tape::new();
        let build = build_pds(&tape, &data, &[], &divergent_cfg(NonFinitePolicy::Clamp));
        assert_eq!(build.numeric.aborted_at, None);
        assert!(!build.numeric.nonfinite_steps.is_empty());
        assert_eq!(build.inner_losses.len(), 6);
        assert!(params_finite(&build), "clamped updates must stay finite");
    }
}
