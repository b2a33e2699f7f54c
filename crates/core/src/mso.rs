//! Multilevel Stackelberg Optimization (§IV-B, §V).
//!
//! A generic simultaneous leader/followers optimizer implementing the update
//! rules of eqs. (9), (10), (13) and (14):
//!
//! * followers descend their own partial gradient `∂L^q/∂X^q` (eq. 9);
//! * the leader descends the **total derivative** (eq. 13/14)
//!   `dL^p/dX^p = ∂L^p/∂X^p − Σᵢ ∂L^p/∂X^qᵢ (∂²L^qᵢ/∂X^qᵢ²)⁻¹ ∂²L^qᵢ/∂X^p∂X^qᵢ`,
//!   with the inverse-Hessian product computed matrix-free by conjugate
//!   gradient over Hessian-vector products (Algorithm 1 steps 9–10);
//! * the push–pull step-size discipline `η^p < η^q` required by Theorem 3 is
//!   asserted at construction.
//!
//! The optimizer is generic over a [`StackelbergGame`], which lets the same
//! update rules drive both the PDS-backed poisoning game (see
//! [`crate::msopds`]) and analytic games used to validate convergence against
//! closed-form equilibria.

use msopds_autograd::{conjugate_gradient, conjugate_gradient_multi, HvpMode, Tape, Tensor, Var};
use msopds_faultline as faultline;
use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// Outer MSO iterations run across all solves.
static MSO_ITERATIONS: telemetry::Counter = telemetry::Counter::new("core.mso.iterations");
/// Follower corrections dropped from a round for numeric reasons.
static MSO_EXCLUSIONS: telemetry::Counter = telemetry::Counter::new("core.mso.follower_exclusions");
/// Leader updates skipped because the total derivative went non-finite.
static MSO_LEADER_SKIPS: telemetry::Counter = telemetry::Counter::new("core.mso.leader_skips");

/// A differentiable two-level game: one leader, `N` followers.
pub trait StackelbergGame {
    /// Records one evaluation of all losses on `tape`, with leader and
    /// follower decision variables as leaves. Implementations may transform
    /// the raw decision vectors (e.g. binarization) before creating leaves;
    /// gradients are taken with respect to the returned leaves and applied to
    /// the raw vectors, per §IV-C.
    fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t>;
}

/// Handles into one recorded game evaluation.
pub struct BuiltGame<'t> {
    /// Leader decision leaf.
    pub xp: Var<'t>,
    /// Follower decision leaves.
    pub xqs: Vec<Var<'t>>,
    /// Leader loss `L^p`.
    pub lp: Var<'t>,
    /// Follower losses `L^qᵢ`.
    pub lqs: Vec<Var<'t>>,
}

/// MSO optimizer configuration (§VI-A.7 defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MsoConfig {
    /// Leader step size η^p (paper: 0.005).
    pub eta_p: f64,
    /// Follower step size η^q (paper: 0.05). Must exceed `eta_p`.
    pub eta_q: f64,
    /// Outer iterations `K` (paper: 20).
    pub iters: usize,
    /// Conjugate-gradient iteration cap for the implicit solve.
    pub cg_iters: usize,
    /// CG relative-residual tolerance.
    pub cg_tol: f64,
    /// CG damping added to the follower Hessian.
    pub cg_damping: f64,
    /// Hessian-vector product mechanism.
    pub hvp_mode: HvpMode,
    /// Kernel-pool lanes used while this solve runs (`0` = inherit the
    /// process-wide pool configuration; see `msopds_autograd::pool`).
    pub threads: usize,
    /// Batch the per-follower implicit solves into one multi-RHS conjugate
    /// gradient (and the per-follower backward passes into multi-seed scans),
    /// amortizing the shared-tape walk and the operator's memory traffic
    /// across opponents. Numerically identical to the sequential path —
    /// per-follower gradients, solves, and `SolveOutcome` classifications are
    /// bitwise unchanged — so this is on by default; it only applies to
    /// [`HvpMode::Exact`] (finite-difference HVPs rebuild the game per
    /// follower and stay sequential).
    pub batch_solves: bool,
}

impl Default for MsoConfig {
    fn default() -> Self {
        Self {
            eta_p: 0.005,
            eta_q: 0.05,
            iters: 20,
            cg_iters: 8,
            cg_tol: 1e-6,
            cg_damping: 1e-3,
            hvp_mode: HvpMode::Exact,
            threads: 0,
            batch_solves: true,
        }
    }
}

/// Why a follower was excluded from one MSO round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FollowerExclusion {
    /// Outer iteration the exclusion happened in.
    pub iteration: usize,
    /// Follower index.
    pub follower: usize,
    /// Human-readable cause (non-finite gradient, unusable CG solve, …).
    pub reason: String,
}

/// Per-iteration diagnostics of an MSO run, used to observe the convergence
/// behaviour asserted by Theorem 3.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MsoDiagnostics {
    /// Leader loss per iteration.
    pub leader_loss: Vec<f64>,
    /// Follower losses per iteration.
    pub follower_loss: Vec<Vec<f64>>,
    /// ‖dL^p/dX^p‖ per iteration (total derivative).
    pub leader_grad_norm: Vec<f64>,
    /// ‖∂L^qᵢ/∂X^qᵢ‖ per iteration, summed over followers.
    pub follower_grad_norm: Vec<f64>,
    /// CG iterations spent per outer iteration.
    pub cg_iterations: Vec<usize>,
    /// Followers whose inner solve failed and whose correction (and, for
    /// non-finite gradients, own update) was dropped from a round instead of
    /// poisoning the whole game.
    pub exclusions: Vec<FollowerExclusion>,
    /// Iterations whose leader update was skipped because the total
    /// derivative went non-finite.
    pub leader_skips: Vec<usize>,
}

/// Result of an MSO run.
#[derive(Clone, Debug)]
pub struct MsoRun {
    /// Final leader decision vector.
    pub xp: Tensor,
    /// Final follower decision vectors.
    pub xqs: Vec<Tensor>,
    /// Convergence diagnostics.
    pub diagnostics: MsoDiagnostics,
}

/// Runs MSO from the given initial decision vectors.
///
/// # Panics
/// Panics unless `0 < eta_p < eta_q` (the Theorem 3 precondition, asserted in
/// Algorithm 1's input contract).
pub fn mso_optimize<G: StackelbergGame>(
    game: &G,
    mut xp: Tensor,
    mut xqs: Vec<Tensor>,
    cfg: &MsoConfig,
) -> MsoRun {
    assert!(
        cfg.eta_p > 0.0 && cfg.eta_p < cfg.eta_q,
        "Theorem 3 requires 0 < η^p ({}) < η^q ({})",
        cfg.eta_p,
        cfg.eta_q
    );
    if cfg.threads > 0 {
        msopds_autograd::pool::configure_threads(cfg.threads);
    }
    let mut diag = MsoDiagnostics::default();
    let _mso_span = telemetry::span("mso");

    for iter in 0..cfg.iters {
        let _iter_span = telemetry::span("iter");
        MSO_ITERATIONS.incr();
        let tape = Tape::new();
        let built = {
            let _build_span = telemetry::span("build");
            game.build(&tape, &xp, &xqs)
        };
        assert_eq!(built.xqs.len(), xqs.len(), "game must expose one leaf per follower");
        assert_eq!(built.lqs.len(), xqs.len(), "game must expose one loss per follower");

        diag.leader_loss.push(built.lp.item());
        diag.follower_loss.push(built.lqs.iter().map(|l| l.item()).collect());

        // ∂L^p/∂X^p and ∂L^p/∂X^qᵢ in one value-only backward pass: nothing
        // differentiates them again, so they are not recorded.
        let gp_all = {
            let _grads_span = telemetry::span("grads");
            let mut wrt = vec![built.xp];
            wrt.extend(built.xqs.iter().copied());
            tape.grad(built.lp, &wrt)
        };
        let mut total = gp_all[0].clone();

        let _correction_span = telemetry::span("correction");
        let mut cg_spent = 0usize;
        let mut follower_gnorm = 0.0;
        let exclude = |diag: &mut MsoDiagnostics, follower: usize, reason: String| {
            MSO_EXCLUSIONS.incr();
            diag.exclusions.push(FollowerExclusion { iteration: iter, follower, reason });
        };
        // `None` = follower excluded this round (its eq. 9 update is skipped).
        let mut follower_grads: Vec<Option<Tensor>> = Vec::with_capacity(xqs.len());
        let batched = cfg.batch_solves && matches!(cfg.hvp_mode, HvpMode::Exact);
        if batched {
            // Batched arm: same math as the sequential loop below, with the
            // per-follower backward passes fused into multi-seed scans and the
            // per-follower CG solves run in lockstep. Every per-follower value
            // (gradient, solve iterates, SolveOutcome, correction) is bitwise
            // identical to the sequential arm; only the order *between*
            // followers of the phases changes, so exclusion diagnostics may
            // interleave differently when several followers fail in the same
            // round for different-phase reasons.

            // Phase 1: all follower gradients ∂L^qᵢ/∂X^qᵢ in one reverse
            // scan over the shared tape (the PDS build is walked once, not
            // once per follower). The only recorded backward of the round:
            // the HVPs and corrections below differentiate these again.
            let gq_all = tape.grad_vars_multi(&built.lqs, &built.xqs);
            let gqs: Vec<Var<'_>> = gq_all.iter().enumerate().map(|(i, row)| row[i]).collect();

            // Phase 2: screening, in follower order — identical exclusion
            // reasons and fault-injection occurrence sequence as sequential.
            let mut solvable: Vec<usize> = Vec::new();
            let mut rhss: Vec<Vec<f64>> = Vec::new();
            let mut shapes: Vec<Vec<usize>> = Vec::new();
            for i in 0..built.xqs.len() {
                let gq_val = gqs[i].value();
                if !gq_val.all_finite() {
                    exclude(&mut diag, i, "non-finite follower gradient ∂L^q/∂X^q".to_string());
                    follower_grads.push(None);
                    continue;
                }
                follower_gnorm += gq_val.norm();
                follower_grads.push(Some(gq_val));

                let mut rhs = gp_all[1 + i].clone();
                if faultline::armed() {
                    let mut v = rhs.to_vec();
                    faultline::corrupt_slice("mso.follower.rhs", &mut v);
                    rhs = Tensor::from_vec(v, rhs.shape());
                }
                if !rhs.all_finite() {
                    exclude(&mut diag, i, "non-finite right-hand side ∂L^p/∂X^q".to_string());
                    continue;
                }
                if rhs.norm() < 1e-12 {
                    continue; // the leader loss does not see this follower
                }
                solvable.push(i);
                shapes.push(rhs.shape().to_vec());
                rhss.push(rhs.to_vec());
            }

            // Phase 3: one lockstep multi-RHS solve. Each iteration fuses the
            // HVPs of every still-active follower into one multi-seed
            // value-only backward pass, its seeds spread over the kernel lanes.
            let sols = if rhss.is_empty() {
                Vec::new()
            } else {
                conjugate_gradient_multi(
                    |dirs| {
                        let mut gvs = Vec::with_capacity(dirs.len());
                        let mut wrts = Vec::with_capacity(dirs.len());
                        for &(s, v) in dirs {
                            let i = solvable[s];
                            let vc = tape.constant(Tensor::from_vec(v.to_vec(), &shapes[s]));
                            gvs.push(gqs[i].mul(vc).sum());
                            wrts.push(built.xqs[i]);
                        }
                        let grads = tape.grad_multi(&gvs, &wrts);
                        grads.into_iter().enumerate().map(|(j, row)| row[j].to_vec()).collect()
                    },
                    &rhss,
                    cfg.cg_iters,
                    cfg.cg_tol,
                    cfg.cg_damping,
                )
            };

            // Phase 4: corrections ξᵢ·∂²L^qᵢ/∂X^p∂X^qᵢ, batched into one
            // multi-seed backward, then subtracted in follower order.
            let mut gxis: Vec<Var<'_>> = Vec::new();
            let mut gxi_followers: Vec<usize> = Vec::new();
            for (s, sol) in sols.into_iter().enumerate() {
                let i = solvable[s];
                cg_spent += sol.iterations;
                if !sol.usable() {
                    exclude(
                        &mut diag,
                        i,
                        format!(
                            "unusable CG solve ({:?} after {} retries)",
                            sol.status, sol.retries
                        ),
                    );
                    continue;
                }
                let xi = tape.constant(Tensor::from_vec(sol.x, &shapes[s]));
                gxis.push(gqs[i].mul(xi).sum());
                gxi_followers.push(i);
            }
            if !gxis.is_empty() {
                let corrections = tape.grad_multi(&gxis, &[built.xp]);
                for (row, &i) in corrections.iter().zip(&gxi_followers) {
                    let correction = &row[0];
                    if !correction.all_finite() {
                        exclude(&mut diag, i, "non-finite mixed-Hessian correction".to_string());
                        continue;
                    }
                    total = total.zip(correction, |t, c| t - c);
                }
            }
        } else {
            for (i, (&xq_leaf, &lq)) in built.xqs.iter().zip(built.lqs.iter()).enumerate() {
                // Follower's own update direction (eq. 9), kept on the tape so it
                // can be differentiated again for the second-order terms.
                let gq = tape.grad_vars(lq, &[xq_leaf])[0];
                let gq_val = gq.value();
                if !gq_val.all_finite() {
                    // A diverged follower must not poison the round: freeze its
                    // decision vector and drop its correction, with a diagnostic.
                    exclude(&mut diag, i, "non-finite follower gradient ∂L^q/∂X^q".to_string());
                    follower_grads.push(None);
                    continue;
                }
                follower_gnorm += gq_val.norm();
                follower_grads.push(Some(gq_val));

                // Right-hand side ∂L^p/∂X^qᵢ of the implicit solve.
                let mut rhs = gp_all[1 + i].clone();
                if faultline::armed() {
                    let mut v = rhs.to_vec();
                    faultline::corrupt_slice("mso.follower.rhs", &mut v);
                    rhs = Tensor::from_vec(v, rhs.shape());
                }
                if !rhs.all_finite() {
                    exclude(&mut diag, i, "non-finite right-hand side ∂L^p/∂X^q".to_string());
                    continue;
                }
                if rhs.norm() < 1e-12 {
                    continue; // the leader loss does not see this follower: no correction
                }

                // Solve ξ·∂²L^q/∂X^q² = ∂L^p/∂X^q matrix-free (Alg. 1 step 9).
                let sol = match cfg.hvp_mode {
                    HvpMode::Exact => conjugate_gradient(
                        |v| {
                            let v_t = Tensor::from_vec(v.to_vec(), rhs.shape());
                            let vc = tape.constant(v_t);
                            let gv = gq.mul(vc).sum();
                            tape.grad(gv, &[xq_leaf]).remove(0).to_vec()
                        },
                        rhs.data(),
                        cfg.cg_iters,
                        cfg.cg_tol,
                        cfg.cg_damping,
                    ),
                    HvpMode::FiniteDiff => {
                        let eval_grad = |xq_pert: &Tensor| -> Tensor {
                            let t2 = Tape::new();
                            let mut xqs2 = xqs.clone();
                            xqs2[i] = xq_pert.clone();
                            let b2 = game.build(&t2, &xp, &xqs2);
                            t2.grad(b2.lqs[i], &[b2.xqs[i]]).remove(0)
                        };
                        conjugate_gradient(
                            |v| {
                                let v_t = Tensor::from_vec(v.to_vec(), rhs.shape());
                                msopds_autograd::hvp::hvp_finite_diff(eval_grad, &xqs[i], &v_t)
                                    .to_vec()
                            },
                            rhs.data(),
                            cfg.cg_iters,
                            cfg.cg_tol,
                            cfg.cg_damping,
                        )
                    }
                };
                cg_spent += sol.iterations;
                if !sol.usable() {
                    // CG classified the solve as pathological (NaN operator,
                    // divergence) even after damped retries: drop the correction
                    // for this follower rather than subtracting garbage.
                    exclude(
                        &mut diag,
                        i,
                        format!(
                            "unusable CG solve ({:?} after {} retries)",
                            sol.status, sol.retries
                        ),
                    );
                    continue;
                }

                // Correction ξ·∂²L^qᵢ/∂X^p∂X^qᵢ via one more backward pass
                // (Alg. 1 step 10): differentiate ⟨∂L^q/∂X^q, ξ⟩ w.r.t. X^p.
                let xi = tape.constant(Tensor::from_vec(sol.x, rhs.shape()));
                let gxi = gq.mul(xi).sum();
                let correction = tape.grad(gxi, &[built.xp]).remove(0);
                if !correction.all_finite() {
                    exclude(&mut diag, i, "non-finite mixed-Hessian correction".to_string());
                    continue;
                }
                total = total.zip(&correction, |t, c| t - c);
            }
        }

        diag.leader_grad_norm.push(total.norm());
        diag.follower_grad_norm.push(follower_gnorm);
        diag.cg_iterations.push(cg_spent);

        // Simultaneous updates (eq. 10 for the leader, eq. 9 for followers).
        // A non-finite total derivative freezes the leader for one round
        // instead of destroying the decision vector.
        if total.all_finite() {
            xp = xp.zip(&total, |x, g| x - cfg.eta_p * g);
        } else {
            MSO_LEADER_SKIPS.incr();
            diag.leader_skips.push(iter);
        }
        for (xq, gq) in xqs.iter_mut().zip(&follower_grads) {
            if let Some(gq) = gq {
                *xq = xq.zip(gq, |x, g| x - cfg.eta_q * g);
            }
        }
    }

    MsoRun { xp, xqs, diagnostics: diag }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Analytic quadratic Stackelberg game with a closed-form equilibrium:
    /// `L^p = (x_p − a)² + c·x_p·x_q`, `L^q = (x_q − d·x_p)²`.
    /// Follower best response: x_q*(x_p) = d·x_p; leader optimum
    /// x_p* = a / (1 + c·d), x_q* = d·x_p*.
    struct Quadratic {
        a: f64,
        c: f64,
        d: f64,
    }

    impl StackelbergGame for Quadratic {
        fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
            let xpv = tape.leaf(xp.clone());
            let xqv = tape.leaf(xqs[0].clone());
            let lp = xpv.add_scalar(-self.a).square().add(xpv.mul(xqv).scale(self.c)).sum();
            let lq = xqv.sub(xpv.scale(self.d)).square().sum();
            BuiltGame { xp: xpv, xqs: vec![xqv], lp, lqs: vec![lq] }
        }
    }

    fn solve(cfg: &MsoConfig, game: &Quadratic) -> MsoRun {
        mso_optimize(game, Tensor::scalar(0.0), vec![Tensor::scalar(0.0)], cfg)
    }

    #[test]
    fn converges_to_closed_form_equilibrium() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 400, ..Default::default() };
        let run = solve(&cfg, &game);
        let xp_star = game.a / (1.0 + game.c * game.d);
        let xq_star = game.d * xp_star;
        assert!(
            (run.xp.item() - xp_star).abs() < 1e-3,
            "leader: got {}, want {xp_star}",
            run.xp.item()
        );
        assert!(
            (run.xqs[0].item() - xq_star).abs() < 1e-3,
            "follower: got {}, want {xq_star}",
            run.xqs[0].item()
        );
    }

    #[test]
    fn naive_partial_gradient_misses_equilibrium() {
        // With c·d ≠ 0 the naive fixed point (ignoring the correction term)
        // is a/(1 + c·d/2) ≠ a/(1+c·d); verify MSO lands on the *Stackelberg*
        // point rather than the naive simultaneous-gradient point.
        let game = Quadratic { a: 3.0, c: 1.0, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 600, ..Default::default() };
        let run = solve(&cfg, &game);
        let stackelberg = 1.5;
        let naive = 2.0; // solves ∂Lp/∂xp = 0 with xq = d·xp: 2(x−3)+x = 0
        assert!((run.xp.item() - stackelberg).abs() < 5e-3);
        assert!((run.xp.item() - naive).abs() > 0.4);
    }

    #[test]
    fn finite_diff_hvp_agrees_with_exact() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 0.8 };
        let base = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 200, ..Default::default() };
        let exact = solve(&base, &game);
        let fd = solve(&MsoConfig { hvp_mode: HvpMode::FiniteDiff, ..base }, &game);
        assert!((exact.xp.item() - fd.xp.item()).abs() < 1e-4);
    }

    #[test]
    fn diagnostics_record_every_iteration() {
        let game = Quadratic { a: 1.0, c: 0.2, d: 0.5 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 7, ..Default::default() };
        let run = solve(&cfg, &game);
        assert_eq!(run.diagnostics.leader_loss.len(), 7);
        assert_eq!(run.diagnostics.follower_loss.len(), 7);
        assert_eq!(run.diagnostics.leader_grad_norm.len(), 7);
    }

    #[test]
    fn leader_gradient_norm_decays() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 300, ..Default::default() };
        let run = solve(&cfg, &game);
        let first = run.diagnostics.leader_grad_norm[0];
        let last = *run.diagnostics.leader_grad_norm.last().unwrap();
        assert!(last < 0.05 * first, "‖grad‖ {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "Theorem 3")]
    fn rejects_eta_p_not_less_than_eta_q() {
        let game = Quadratic { a: 1.0, c: 0.1, d: 0.1 };
        let cfg = MsoConfig { eta_p: 0.5, eta_q: 0.1, iters: 1, ..Default::default() };
        let _ = solve(&cfg, &game);
    }

    #[test]
    fn diverged_follower_is_excluded_not_poisoning() {
        // The follower loss ln(x_q) has gradient 1/x_q = ∞ at the x_q = 0
        // start: every round must exclude the follower (with a diagnostic),
        // freeze its decision vector, and keep the leader's own descent
        // finite — instead of NaN-ing the whole game.
        struct BadFollower;
        impl StackelbergGame for BadFollower {
            fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
                let xpv = tape.leaf(xp.clone());
                let xqv = tape.leaf(xqs[0].clone());
                let lp = xpv.add_scalar(-1.0).square().sum().add(xpv.mul(xqv).scale(0.1).sum());
                let lq = xqv.ln().sum();
                BuiltGame { xp: xpv, xqs: vec![xqv], lp, lqs: vec![lq] }
            }
        }
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 10, ..Default::default() };
        let run = mso_optimize(&BadFollower, Tensor::scalar(0.0), vec![Tensor::scalar(0.0)], &cfg);
        assert_eq!(run.diagnostics.exclusions.len(), 10, "every round excludes the follower");
        assert_eq!(run.diagnostics.exclusions[0].follower, 0);
        assert!(run.diagnostics.exclusions[0].reason.contains("non-finite follower gradient"));
        assert!(run.xp.item().is_finite(), "leader poisoned: {}", run.xp.item());
        assert!(run.xp.item() > 0.1, "leader should still descend toward its optimum");
        assert_eq!(run.xqs[0].item(), 0.0, "excluded follower stays frozen");
        assert!(run.diagnostics.leader_skips.is_empty());
    }

    #[test]
    fn healthy_games_record_no_exclusions() {
        let game = Quadratic { a: 2.0, c: 0.5, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.05, eta_q: 0.4, iters: 50, ..Default::default() };
        let run = solve(&cfg, &game);
        assert!(run.diagnostics.exclusions.is_empty());
        assert!(run.diagnostics.leader_skips.is_empty());
    }

    #[test]
    fn two_followers_sum_their_corrections() {
        // Symmetric two-follower extension; equilibrium from eq. (14):
        // L^p = (x_p − a)² + c·x_p·(x_q1 + x_q2), followers track d·x_p.
        struct TwoFollower {
            a: f64,
            c: f64,
            d: f64,
        }
        impl StackelbergGame for TwoFollower {
            fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
                let xpv = tape.leaf(xp.clone());
                let q1 = tape.leaf(xqs[0].clone());
                let q2 = tape.leaf(xqs[1].clone());
                let lp =
                    xpv.add_scalar(-self.a).square().add(xpv.mul(q1.add(q2)).scale(self.c)).sum();
                let lq1 = q1.sub(xpv.scale(self.d)).square().sum();
                let lq2 = q2.sub(xpv.scale(self.d)).square().sum();
                BuiltGame { xp: xpv, xqs: vec![q1, q2], lp, lqs: vec![lq1, lq2] }
            }
        }
        let game = TwoFollower { a: 2.0, c: 0.25, d: 1.0 };
        let cfg = MsoConfig { eta_p: 0.04, eta_q: 0.4, iters: 500, ..Default::default() };
        let run = mso_optimize(
            &game,
            Tensor::scalar(0.0),
            vec![Tensor::scalar(0.0), Tensor::scalar(0.0)],
            &cfg,
        );
        // Same algebra as the single-follower case with c_eff = 2c.
        let xp_star = game.a / (1.0 + 2.0 * game.c * game.d);
        assert!((run.xp.item() - xp_star).abs() < 2e-3, "got {}", run.xp.item());
    }

    // ---- batched multi-RHS solves (ISSUE 6): bitwise parity ----

    /// Cross-coupled two-follower game: each follower's loss also touches the
    /// *other* follower's variable, so the batched multi-seed backward must
    /// keep the adjoint streams strictly separate (a summed-loss shortcut
    /// would leak cross-Hessian terms here).
    struct Coupled;
    impl StackelbergGame for Coupled {
        fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
            let xpv = tape.leaf(xp.clone());
            let q1 = tape.leaf(xqs[0].clone());
            let q2 = tape.leaf(xqs[1].clone());
            let lp =
                xpv.add_scalar(-2.0).square().add(xpv.mul(q1.add(q2.scale(2.0))).scale(0.3)).sum();
            let lq1 = q1.sub(xpv.scale(0.7)).square().add(q1.mul(q2).square().scale(0.2)).sum();
            let lq2 = q2.sub(xpv.scale(0.5)).square().add(q2.mul(q1).scale(0.1)).sum();
            BuiltGame { xp: xpv, xqs: vec![q1, q2], lp, lqs: vec![lq1, lq2] }
        }
    }

    fn assert_runs_bitwise_eq(batched: &MsoRun, sequential: &MsoRun) {
        let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batched.xp), bits(&sequential.xp), "leader decision");
        for (i, (b, s)) in batched.xqs.iter().zip(sequential.xqs.iter()).enumerate() {
            assert_eq!(bits(b), bits(s), "follower {i} decision");
        }
        let (db, ds) = (&batched.diagnostics, &sequential.diagnostics);
        let fbits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(fbits(&db.leader_loss), fbits(&ds.leader_loss), "leader loss");
        assert_eq!(db.follower_loss, ds.follower_loss, "follower losses");
        assert_eq!(fbits(&db.leader_grad_norm), fbits(&ds.leader_grad_norm), "‖dLp/dXp‖");
        assert_eq!(fbits(&db.follower_grad_norm), fbits(&ds.follower_grad_norm), "‖gq‖");
        assert_eq!(db.cg_iterations, ds.cg_iterations, "CG iterations per round");
        assert_eq!(db.exclusions.len(), ds.exclusions.len(), "exclusion count");
        assert_eq!(db.leader_skips, ds.leader_skips, "leader skips");
    }

    #[test]
    fn batched_solves_bitwise_match_sequential_cross_coupled() {
        let seq_cfg = MsoConfig {
            eta_p: 0.03,
            eta_q: 0.3,
            iters: 30,
            batch_solves: false,
            ..Default::default()
        };
        let bat_cfg = MsoConfig { batch_solves: true, ..seq_cfg };
        let x0 = Tensor::scalar(0.1);
        let q0 = vec![Tensor::scalar(0.2), Tensor::scalar(-0.1)];
        let sequential = mso_optimize(&Coupled, x0.clone(), q0.clone(), &seq_cfg);
        let batched = mso_optimize(&Coupled, x0, q0, &bat_cfg);
        assert_runs_bitwise_eq(&batched, &sequential);
        assert!(batched.xp.item().is_finite());
    }

    #[test]
    fn batched_solves_bitwise_match_sequential_with_exclusions() {
        // One healthy follower plus one whose gradient is non-finite from the
        // start: the batched screening must drop the same follower with the
        // same reason and still match the healthy follower's solve bitwise.
        struct HalfBad;
        impl StackelbergGame for HalfBad {
            fn build<'t>(&self, tape: &'t Tape, xp: &Tensor, xqs: &[Tensor]) -> BuiltGame<'t> {
                let xpv = tape.leaf(xp.clone());
                let q1 = tape.leaf(xqs[0].clone());
                let q2 = tape.leaf(xqs[1].clone());
                let lp = xpv.add_scalar(-1.0).square().add(xpv.mul(q1.add(q2)).scale(0.1)).sum();
                let lq1 = q1.sub(xpv.scale(0.5)).square().sum();
                let lq2 = q2.ln().sum(); // gradient 1/x_q2 = ∞ at x_q2 = 0
                BuiltGame { xp: xpv, xqs: vec![q1, q2], lp, lqs: vec![lq1, lq2] }
            }
        }
        let seq_cfg = MsoConfig {
            eta_p: 0.05,
            eta_q: 0.4,
            iters: 8,
            batch_solves: false,
            ..Default::default()
        };
        let bat_cfg = MsoConfig { batch_solves: true, ..seq_cfg };
        let q0 = vec![Tensor::scalar(0.0), Tensor::scalar(0.0)];
        let sequential = mso_optimize(&HalfBad, Tensor::scalar(0.0), q0.clone(), &seq_cfg);
        let batched = mso_optimize(&HalfBad, Tensor::scalar(0.0), q0, &bat_cfg);
        assert_runs_bitwise_eq(&batched, &sequential);
        assert_eq!(batched.diagnostics.exclusions.len(), 8);
        assert!(batched.diagnostics.exclusions[0].reason.contains("non-finite follower gradient"));
        assert_eq!(batched.xqs[1].item(), 0.0, "excluded follower stays frozen");
    }

    #[test]
    fn two_follower_run_is_bitwise_equal_at_one_and_two_lanes() {
        // The batched HVPs and corrections run one follower per lane; each
        // follower's pass stays sequential, so the lane count moves no bit.
        let cfg =
            MsoConfig { eta_p: 0.03, eta_q: 0.3, iters: 30, threads: 1, ..Default::default() };
        let x0 = Tensor::scalar(0.1);
        let q0 = vec![Tensor::scalar(0.2), Tensor::scalar(-0.1)];
        let one = mso_optimize(&Coupled, x0.clone(), q0.clone(), &cfg);
        let two = mso_optimize(&Coupled, x0, q0, &MsoConfig { threads: 2, ..cfg });
        assert_runs_bitwise_eq(&two, &one);
    }

    #[test]
    fn batched_is_default_and_matches_two_follower_equilibrium() {
        // The default config batches; the analytic TwoFollower equilibrium
        // must still be reached (same check as the sequential test above).
        let cfg = MsoConfig { eta_p: 0.04, eta_q: 0.4, iters: 500, ..Default::default() };
        assert!(cfg.batch_solves, "batching is opt-out");
        let run = mso_optimize(
            &Coupled,
            Tensor::scalar(0.0),
            vec![Tensor::scalar(0.0), Tensor::scalar(0.0)],
            &cfg,
        );
        assert!(run.xp.item().is_finite());
        assert!(run.diagnostics.leader_grad_norm.last().unwrap().is_finite());
    }
}
