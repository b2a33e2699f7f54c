//! Bit-exactness of the parallel kernels against their sequential forms.
//!
//! The pool's determinism contract (see `msopds_autograd::pool`): every
//! output element is computed by exactly one chunk with the same inner loop
//! order as the sequential kernel, so results are *bit-identical* for any
//! thread count. These tests force the parallel code paths on small tensors
//! (thresholds dropped to 1, 4 lanes) and compare against a sequential run
//! bit for bit, across randomized shapes and values. Multi-seed value-only
//! backward passes, whose seeds run on separate lanes, are held to the same
//! contract at 1, 2 and 4 lanes.

use std::sync::Mutex;

use msopds_autograd::pool::{self, DEFAULT_COPY_MIN, DEFAULT_ELEMWISE_MIN, DEFAULT_MATMUL_MIN};
use msopds_autograd::{spmm, SparseMatrix, SparseOperand, Tape, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Serializes tests that reconfigure the process-global pool/thresholds.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` sequentially (1 lane), then with every kernel forced parallel
/// (4 lanes, thresholds 1), restoring defaults afterwards.
fn seq_then_par<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pool::configure_threads(1);
    let seq = f();
    pool::set_parallel_thresholds(1, 1, 1);
    pool::configure_threads(4);
    let par = f();
    pool::set_parallel_thresholds(DEFAULT_ELEMWISE_MIN, DEFAULT_COPY_MIN, DEFAULT_MATMUL_MIN);
    pool::configure_threads(1);
    (seq, par)
}

fn rand_tensor(rng: &mut rand::rngs::StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Tensor::from_vec(data, shape)
}

fn assert_bits_eq(seq: &[f64], par: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(par).enumerate() {
        prop_assert!(a.to_bits() == b.to_bits(), "bit mismatch at {}: {} vs {}", i, a, b);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_bits_match(seed in 0u64..1000, m in 1usize..24, k in 1usize..24, n in 1usize..24) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[k, n]);
        let (s, p) = seq_then_par(|| a.matmul(&b).to_vec());
        assert_bits_eq(&s, &p)?;
    }

    #[test]
    fn transpose_bits_match(seed in 0u64..1000, m in 1usize..150, n in 1usize..150) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, &[m, n]);
        let (s, p) = seq_then_par(|| a.transpose().to_vec());
        assert_bits_eq(&s, &p)?;
    }

    #[test]
    fn elementwise_bits_match(seed in 0u64..1000, len in 1usize..4000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, &[len]);
        let b = rand_tensor(&mut rng, &[len]);
        let (s, p) = seq_then_par(|| {
            let mapped = a.map(|x| (x * 1.7).tanh() + 0.3);
            mapped.zip(&b, |x, y| x * y + x / (y.abs() + 1.0)).to_vec()
        });
        assert_bits_eq(&s, &p)?;
    }

    #[test]
    fn structural_kernels_bits_match(seed in 0u64..1000, m in 1usize..40, n in 1usize..40) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_tensor(&mut rng, &[m, n]);
        let b = rand_tensor(&mut rng, &[m, n]);
        let v = rand_tensor(&mut rng, &[m]);
        let idx: Vec<usize> = (0..2 * m).map(|_| rng.gen_range(0..m)).collect();
        let (s, p) = seq_then_par(|| {
            let mut out = a.sum_rows().to_vec();
            out.extend(a.sum_cols().to_vec());
            out.extend(v.broadcast_cols(n).to_vec());
            out.extend(v.broadcast_rows(7).to_vec());
            out.extend(a.gather_rows(&idx).to_vec());
            out.extend(a.concat_cols(&b).to_vec());
            out.extend(a.slice_cols(n / 3, n).to_vec());
            out.extend(a.pad_cols(2, n + 5).to_vec());
            out
        });
        assert_bits_eq(&s, &p)?;
    }

    #[test]
    fn backward_pass_bits_match(seed in 0u64..1000, m in 2usize..16, k in 2usize..16, n in 2usize..16) {
        // A small training-shaped graph: affine → sigmoid → gather → sum,
        // differentiated w.r.t. both weight matrices. Exercises the matmul,
        // transpose, broadcast, gather/scatter, and elementwise VJPs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x0 = rand_tensor(&mut rng, &[m, k]);
        let w0 = rand_tensor(&mut rng, &[k, n]);
        let b0 = rand_tensor(&mut rng, &[n]);
        let rows = Arc::new((0..m).map(|_| rng.gen_range(0..m)).collect::<Vec<usize>>());
        let (s, p) = seq_then_par(|| {
            let tape = Tape::new();
            let x = tape.leaf(x0.clone());
            let w = tape.leaf(w0.clone());
            let b = tape.leaf(b0.clone());
            let h = x.matmul(w).add(b.broadcast_rows(m)).sigmoid();
            let loss = h.gather_rows(Arc::clone(&rows)).square().sum();
            let grads = tape.grad(loss, &[x, w, b]);
            let mut out = grads[0].to_vec();
            out.extend(grads[1].to_vec());
            out.extend(grads[2].to_vec());
            out
        });
        assert_bits_eq(&s, &p)?;
    }
}

#[test]
fn tape_reset_recycles_buffers() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pool::configure_threads(1);
    pool::clear_buffer_pool();
    let run = || {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[32, 32]));
        let y = tape.leaf(Tensor::ones(&[32, 32]));
        let loss = x.matmul(y).sigmoid().sum();
        let _ = tape.grad(loss, &[x, y]);
    };
    run(); // tape dropped → uniquely-owned node values go to the pool
    let (bufs, elems) = pool::buffer_pool_stats();
    assert!(bufs > 0, "drop path should have recycled tape buffers");
    assert!(elems > 0);
    run(); // second run draws from the pool; pool must not grow unboundedly
    let (bufs2, _) = pool::buffer_pool_stats();
    assert!(bufs2 <= bufs + 4, "steady-state reuse expected: {bufs} then {bufs2} held buffers");
    pool::clear_buffer_pool();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_multi_bits_match_across_lanes(
        seed in 0u64..1000,
        m in 2usize..12,
        n in 2usize..12,
        seeds in 1usize..6,
    ) {
        // Several seeds over one shared prefix, as in the planner's
        // per-follower HVPs. The seeds spread over the lanes and every kernel
        // inside a seed is forced parallel too (thresholds 1), so lanes are
        // shared between the seed level and the kernel level.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x0 = rand_tensor(&mut rng, &[m, n]);
        let w0 = rand_tensor(&mut rng, &[n, n]);
        let triplets: Vec<(usize, usize, f64)> = (0..3 * m)
            .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m), rng.gen_range(-1.0..1.0)))
            .collect();
        let adj = SparseOperand::new(SparseMatrix::from_triplets(m, m, &triplets));
        let rows: Vec<Arc<Vec<usize>>> =
            (0..seeds).map(|_| Arc::new((0..m).map(|_| rng.gen_range(0..m)).collect())).collect();
        let run = |lanes: usize| {
            let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            pool::set_parallel_thresholds(1, 1, 1);
            pool::configure_threads(lanes);
            let tape = Tape::new();
            let x = tape.leaf(x0.clone());
            let w = tape.leaf(w0.clone());
            let shared = spmm(&adj, x.matmul(w)).selu();
            let outputs: Vec<_> = rows
                .iter()
                .enumerate()
                .map(|(s, r)| {
                    shared.gather_rows(Arc::clone(r)).scale(s as f64 + 1.0).square().sum()
                })
                .collect();
            let grads = tape.grad_multi(&outputs, &[x, w]);
            pool::set_parallel_thresholds(
                DEFAULT_ELEMWISE_MIN,
                DEFAULT_COPY_MIN,
                DEFAULT_MATMUL_MIN,
            );
            pool::configure_threads(1);
            grads.iter().flatten().flat_map(|g| g.to_vec()).collect::<Vec<f64>>()
        };
        let one = run(1);
        assert_bits_eq(&one, &run(2))?;
        assert_bits_eq(&one, &run(4))?;
    }
}
