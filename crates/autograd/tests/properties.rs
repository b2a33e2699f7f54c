//! Property-based tests for the autodiff substrate.
//!
//! The central invariants: analytic gradients equal finite differences on
//! randomized inputs, adjoint pairs (gather/scatter, concat/slice) satisfy the
//! inner-product identity, CG solves random SPD systems, and the value-only
//! backward pass reproduces the recorded one bit for bit on random DAGs.

use msopds_autograd::ndiff::numeric_grad;
use msopds_autograd::{conjugate_gradient, spmm, SparseMatrix, SparseOperand, Tape, Tensor, Var};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0..2.0f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grad_matches_numeric_elementwise(xs in small_vec(6), ys in small_vec(6)) {
        // f = Σ ( x·y + sigmoid(x) − tanh(y) + selu(x·0.5) )
        let f = |x: &Tensor, y: &Tensor| -> (Tape, usize, usize, usize) {
            let tape = Tape::new();
            let (xid, yid, lid);
            {
                let xv = tape.leaf(x.clone());
                let yv = tape.leaf(y.clone());
                let expr = xv.mul(yv)
                    .add(xv.sigmoid())
                    .sub(yv.tanh())
                    .add(xv.scale(0.5).selu())
                    .sum();
                xid = xv.id();
                yid = yv.id();
                lid = expr.id();
            }
            (tape, xid, yid, lid)
        };
        let x0 = Tensor::from_vec(xs, &[6]);
        let y0 = Tensor::from_vec(ys, &[6]);
        let (tape, xid, yid, lid) = f(&x0, &y0);
        let loss = var_of(&tape, lid);
        let g = tape.grad(loss, &[var_of(&tape, xid), var_of(&tape, yid)]);

        let ng_x = numeric_grad(|t| {
            let (tp, _, _, l) = f(t, &y0);
            tp.value(l).item()
        }, &x0, 1e-5);
        let ng_y = numeric_grad(|t| {
            let (tp, _, _, l) = f(&x0, t);
            tp.value(l).item()
        }, &y0, 1e-5);

        for i in 0..6 {
            // SELU's kink at 0 makes finite differences unreliable within ε of 0.
            if (x0.get(i) * 0.5).abs() > 1e-3 {
                prop_assert!((g[0].get(i) - ng_x.get(i)).abs() < 1e-4,
                    "x grad mismatch at {i}: {} vs {}", g[0].get(i), ng_x.get(i));
            }
            prop_assert!((g[1].get(i) - ng_y.get(i)).abs() < 1e-4,
                "y grad mismatch at {i}: {} vs {}", g[1].get(i), ng_y.get(i));
        }
    }

    #[test]
    fn grad_matches_numeric_matrix_pipeline(xs in small_vec(12)) {
        // f = Σ selu( X · W )  for a fixed W, X ∈ R^{3×4}
        let w0 = Tensor::from_vec((0..8).map(|i| 0.1 * i as f64 - 0.3).collect(), &[4, 2]);
        let f = |x: &Tensor| -> f64 {
            let tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.constant(w0.clone());
            xv.matmul(wv).selu().sum().item()
        };
        let x0 = Tensor::from_vec(xs, &[3, 4]);
        let tape = Tape::new();
        let xv = tape.leaf(x0.clone());
        let wv = tape.constant(w0.clone());
        let loss = xv.matmul(wv).selu().sum();
        let g = tape.grad(loss, &[xv]).remove(0);
        let ng = numeric_grad(f, &x0, 1e-5);
        prop_assert!(g.max_abs_diff(&ng) < 1e-3,
            "max diff {}", g.max_abs_diff(&ng));
    }

    #[test]
    fn gather_scatter_adjoint_identity(
        xs in small_vec(8),
        ys in small_vec(3),
        idx in proptest::collection::vec(0usize..8, 3),
    ) {
        // ⟨gather(x, idx), y⟩ = ⟨x, scatter(y, idx)⟩
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(xs, &[8]));
        let y = tape.leaf(Tensor::from_vec(ys, &[3]));
        let idx = Arc::new(idx);
        let lhs = x.gather_elems(Arc::clone(&idx)).mul(y).sum().item();
        let rhs = y.scatter_add_elems(idx, 8).mul(x).sum().item();
        prop_assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn concat_slice_inverse(a in small_vec(6), b in small_vec(4)) {
        let tape = Tape::new();
        let av = tape.leaf(Tensor::from_vec(a.clone(), &[2, 3]));
        let bv = tape.leaf(Tensor::from_vec(b.clone(), &[2, 2]));
        let c = av.concat_cols(bv);
        prop_assert_eq!(c.slice_cols(0, 3).value().to_vec(), a);
        prop_assert_eq!(c.slice_cols(3, 5).value().to_vec(), b);
    }

    #[test]
    fn cg_recovers_direct_solution(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 6;
        let mm: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = (0..n).map(|k| mm[k][i] * mm[k][j]).sum::<f64>()
                    + if i == j { 0.5 } else { 0.0 };
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sol = conjugate_gradient(
            |v| a.iter().map(|row| row.iter().zip(v).map(|(x, y)| x * y).sum()).collect(),
            &b, 100, 1e-12, 0.0,
        );
        let ax: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(&sol.x).map(|(x, y)| x * y).sum())
            .collect();
        for i in 0..n {
            prop_assert!((ax[i] - b[i]).abs() < 1e-6, "residual at {i}");
        }
    }

    #[test]
    fn second_order_matches_numeric_hessian_diag(xs in small_vec(4)) {
        // L = Σ exp(x)·x; d²L/dx² = exp(x)(x + 2) elementwise-diagonal.
        let x0 = Tensor::from_vec(xs, &[4]);
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = x.exp().mul(x).sum();
        let g = tape.grad_vars(loss, &[x])[0];
        let gsum = g.sum();
        let hdiag_rowsum = tape.grad(gsum, &[x]).remove(0);
        // Since the Hessian is diagonal here, grad of Σgrad equals the diagonal.
        for i in 0..4 {
            let expect = x0.get(i).exp() * (x0.get(i) + 2.0);
            prop_assert!((hdiag_rowsum.get(i) - expect).abs() < 1e-8);
        }
    }
}

fn var_of<'t>(tape: &'t Tape, id: usize) -> msopds_autograd::Var<'t> {
    tape.var(id)
}

// ---- value-only vs recorded backward on random DAGs --------------------------

/// Number of op templates [`grow`] knows; every DAG uses each at least once.
const TEMPLATES: usize = 21;

fn rand_tensor(rng: &mut rand::rngs::StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-2.0..2.0)).collect(), shape)
}

fn rand_idx(rng: &mut rand::rngs::StdRng, len: usize, below: usize) -> Arc<Vec<usize>> {
    Arc::new((0..len).map(|_| rng.gen_range(0..below)).collect())
}

/// Appends one `[m, n]` node built from random earlier nodes by op template
/// `kind`. Together the templates record every `Op` variant; inputs are kept
/// in each op's domain (positive bases, non-zero denominators).
fn grow<'t>(
    tape: &'t Tape,
    rng: &mut rand::rngs::StdRng,
    pool: &[Var<'t>],
    kind: usize,
    sparse: &Arc<SparseOperand>,
) -> Var<'t> {
    let pick = |rng: &mut rand::rngs::StdRng| pool[rng.gen_range(0..pool.len())];
    let (x, y) = (pick(rng), pick(rng));
    let shape = x.shape();
    let (m, n) = (shape[0], shape[1]);
    match kind {
        0 => x.add(y).sub(x.neg()),
        1 => x.mul(y).div(y.square().add_scalar(1.0)),
        2 => x.square().add_scalar(0.5).pow_scalar(rng.gen_range(-1.5..2.5)).scale(0.5),
        3 => x.matmul(y.t()).matmul(pick(rng)).scale(0.1),
        4 => x.reshape(&[m * n]).reshape(&[m, n]),
        5 => x.sum().scale(0.05).expand(&[m, n]).mul(y),
        6 => x.sum_rows().broadcast_cols(n).add(x.sum_cols().broadcast_rows(m)).scale(0.1),
        7 => {
            let k = rng.gen_range(1..2 * m + 1);
            let rows = rand_idx(rng, k, m);
            x.gather_rows(rows).scatter_add_rows(rand_idx(rng, k, m), m)
        }
        8 => {
            let k = rng.gen_range(1..2 * m * n + 1);
            let elems = rand_idx(rng, k, m * n);
            let v = x.reshape(&[m * n]).gather_elems(elems);
            v.scatter_add_elems(rand_idx(rng, k, m * n), m * n).reshape(&[m, n])
        }
        9 => spmm(sparse, x).add(y),
        10 => {
            let from = rng.gen_range(0..n + 1);
            x.concat_cols(y).slice_cols(from, from + n)
        }
        11 => {
            let w = rng.gen_range(1..n + 1);
            x.slice_cols(0, w).pad_cols(rng.gen_range(0..n - w + 1), n).add(y)
        }
        12 => x.scale(0.3).exp(),
        13 => x.square().add_scalar(1.0).ln(),
        14 => x.square().add_scalar(1.0).sqrt(),
        15 => x.sigmoid().mul(y),
        16 => x.tanh(),
        17 => x.relu().add(y),
        18 => x.selu(),
        19 => x.add(tape.constant(Tensor::full(&[m, n], 0.5))).mul(y.add_scalar(-0.25)),
        _ => x.sub(y).scale(-1.5),
    }
}

fn assert_bits_eq(label: &str, value: &Tensor, recorded: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(value.shape(), recorded.shape(), "{}: shape", label);
    for (i, (a, b)) in value.data().iter().zip(recorded.data()).enumerate() {
        prop_assert!(a.to_bits() == b.to_bits(), "{}: [{}] {} vs {}", label, i, a, b);
    }
    Ok(())
}

/// `grad` / `grad_multi` against the values of `grad_vars` / `grad_vars_multi`
/// on the same tape. The value passes run first so they see exactly the
/// nodes the recorded passes see.
fn check_value_pass<'t>(
    tape: &'t Tape,
    outputs: &[Var<'t>],
    wrt: &[Var<'t>],
) -> Result<(), TestCaseError> {
    let len = tape.len();
    let single = tape.grad(outputs[0], wrt);
    let multi = tape.grad_multi(outputs, wrt);
    prop_assert_eq!(tape.len(), len, "value passes record nothing");
    let single_rec = tape.grad_vars(outputs[0], wrt);
    let multi_rec = tape.grad_vars_multi(outputs, wrt);
    for (w, (v, r)) in single.iter().zip(&single_rec).enumerate() {
        assert_bits_eq(&format!("grad wrt {w}"), v, &r.value())?;
    }
    for (s, (row, row_rec)) in multi.iter().zip(&multi_rec).enumerate() {
        for (w, (v, r)) in row.iter().zip(row_rec).enumerate() {
            assert_bits_eq(&format!("grad_multi seed {s} wrt {w}"), v, &r.value())?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn value_backward_bitwise_matches_recorded(
        seed in 0u64..1_000_000,
        m in 2usize..6,
        n in 2usize..6,
        extra in 0usize..12,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A non-symmetric square operand, so the two Spmm orientations differ.
        let triplets: Vec<(usize, usize, f64)> = (0..2 * m)
            .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m), rng.gen_range(-1.0..1.0)))
            .collect();
        let sparse = SparseOperand::new(SparseMatrix::from_triplets(m, m, &triplets));

        let tape = Tape::new();
        let leaves: Vec<Var<'_>> =
            (0..3).map(|_| tape.leaf(rand_tensor(&mut rng, &[m, n]))).collect();
        // Never used: the outputs cannot reach it.
        let unreachable = tape.leaf(rand_tensor(&mut rng, &[m, n]));
        let mut pool = leaves.clone();
        let mut kinds: Vec<usize> = (0..TEMPLATES).collect();
        kinds.extend((0..extra).map(|_| rng.gen_range(0..TEMPLATES)));
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.gen_range(0..i + 1));
        }
        for kind in kinds {
            let node = grow(&tape, &mut rng, &pool, kind, &sparse);
            pool.push(node);
        }
        let last = pool[pool.len() - 1];
        let mid = pool[pool.len() / 2];
        let loss = last.mul(mid).sum();
        let other = pool[pool.len() - 2].tanh(); // a non-scalar output: ones seed
        // Created after both outputs, so neither can reach it.
        let after = leaves[0].scale(2.0);
        let wrt = [leaves[0], leaves[1], leaves[2], mid, unreachable, after];
        check_value_pass(&tape, &[loss, other], &wrt)?;

        // Second order: differentiating a recorded gradient runs the
        // transposed Spmm forward and the selu/relu masks again.
        let g = tape.grad_vars(loss, &[leaves[0]]).remove(0);
        let v = tape.constant(rand_tensor(&mut rng, &[m, n]));
        let hvp_seed = g.mul(v).sum();
        check_value_pass(&tape, &[hvp_seed, loss], &[leaves[0], leaves[1], leaves[2], after])?;
    }
}
