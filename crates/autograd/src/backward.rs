//! Reverse-mode differentiation.
//!
//! Two reverse passes share one rule table (`vjps`, below):
//!
//! * **Recorded** — [`Tape::grad_vars`] / [`Tape::grad_vars_multi`]. Every
//!   vector-Jacobian product is *itself built from tape operations*, so the
//!   returned gradients are ordinary differentiable [`Var`]s: calling
//!   `grad_vars` on an expression built from them yields exact second-order
//!   derivatives. This is the mechanism behind the Hessian-vector products of
//!   Algorithm 1, step 9 (`ξ ∂²L^q/∂X̂^q² = ∂L^p/∂X̂^q`).
//! * **Value-only** — [`Tape::grad`] / [`Tape::grad_multi`]. The same rules
//!   evaluate each VJP straight to a [`Tensor`] through the kernels the tape
//!   records with, so every value is bitwise the recorded pass's, but nothing
//!   is pushed on the tape and each adjoint buffer goes back to the buffer
//!   pool as soon as it is consumed. Use it whenever only the gradient's value
//!   is read (CG operators, corrections, training steps).
//!
//! Both passes start with one forward sweep that marks the nodes depending on
//! a `wrt` node ("live"), and form VJPs only for live inputs. A contribution
//! to a dead node can never reach a `wrt`, and every contribution to a live
//! node comes from a live consumer, so pruning drops no term of any result
//! and keeps the accumulation order. The scan also stops at the earliest
//! `wrt` node: in an unrolled training loop, step t's backward walks step t
//! only, not steps 0..t.
//!
//! Piecewise-linear activations (`relu`, and the switching mask of `selu`)
//! treat their activation pattern as a constant, which matches the
//! almost-everywhere derivative and is the standard convention.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use msopds_telemetry as telemetry;

use crate::pool;
use crate::tape::{eval, Node, NodeId, Op, Tape, SELU_ALPHA, SELU_LAMBDA};
use crate::tensor::Tensor;
use crate::var::Var;

/// Kernel evaluations made by value-only backward passes. They record no
/// node, so `autograd.tape.ops` does not count them.
static VALUE_OPS: telemetry::Counter = telemetry::Counter::new("autograd.backward.value_ops");

impl Tape {
    /// Differentiable gradients of `output` with respect to each `wrt` node.
    ///
    /// If `output` is not scalar the seed is a ones tensor, i.e. the gradient
    /// of `output.sum()`. Nodes unreachable from `output` get a zero gradient
    /// of the appropriate shape.
    pub fn grad_vars<'t>(&'t self, output: Var<'t>, wrt: &[Var<'t>]) -> Vec<Var<'t>> {
        self.grad_vars_multi(&[output], wrt).remove(0)
    }

    /// Differentiable gradients of several outputs in **one** reverse scan.
    ///
    /// Returns `result[s][w]` = ∂outputs[s]/∂wrt[w]. Each seed gets its own
    /// adjoint array, so the seeds never mix: `result[s]` is bitwise identical
    /// to a separate [`Tape::grad_vars`] call on `outputs[s]` (the VJP nodes a
    /// seed creates depend only on *forward* node values, never on other
    /// adjoints, so interleaved construction changes node ids but not one
    /// numeric value). This matters for the multilevel planner, where the
    /// followers' losses share one poisoned-data-set build and therefore one
    /// tape: batching their backward passes walks that shared prefix once
    /// instead of once per follower, without introducing cross-follower terms.
    pub fn grad_vars_multi<'t>(
        &'t self,
        outputs: &[Var<'t>],
        wrt: &[Var<'t>],
    ) -> Vec<Vec<Var<'t>>> {
        let out_ids: Vec<NodeId> = outputs.iter().map(Var::id).collect();
        let wrt_ids: Vec<NodeId> = wrt.iter().map(Var::id).collect();
        let marks = Marks::new(&self.nodes.borrow(), &out_ids, &wrt_ids);
        let seeds = out_ids
            .iter()
            .map(|&o| {
                marks.live(o).then(|| (o, self.constant(Tensor::ones(self.value(o).shape()))))
            })
            .collect();
        let recorder = Recorder(self);
        scan(&recorder, &marks, seeds)
            .iter()
            .map(|adj| {
                wrt_ids
                    .iter()
                    .map(|&w| {
                        adj_of(adj, w)
                            .unwrap_or_else(|| self.constant(Tensor::zeros(self.value(w).shape())))
                    })
                    .collect()
            })
            .collect()
    }

    /// Gradient values of `output` w.r.t. each `wrt` node.
    ///
    /// Bitwise equal to the values of [`Tape::grad_vars`], computed by the
    /// value-only pass: the tape does not grow.
    pub fn grad(&self, output: Var<'_>, wrt: &[Var<'_>]) -> Vec<Tensor> {
        self.grad_multi(&[output], wrt).remove(0)
    }

    /// Gradient values of several outputs: `result[s][w]` = ∂outputs[s]/∂wrt[w],
    /// bitwise equal to `grad_vars_multi(outputs, wrt)[s][w].value()`.
    ///
    /// The value-only counterpart of [`Tape::grad_vars_multi`]; nothing is
    /// recorded. The seeds run across the kernel pool's lanes
    /// ([`pool::run_chunks`]), one whole sequential scan per seed, so the
    /// result does not depend on the lane count.
    pub fn grad_multi(&self, outputs: &[Var<'_>], wrt: &[Var<'_>]) -> Vec<Vec<Tensor>> {
        let out_ids: Vec<NodeId> = outputs.iter().map(Var::id).collect();
        let wrt_ids: Vec<NodeId> = wrt.iter().map(Var::id).collect();
        let guard = self.nodes.borrow();
        let nodes: &[Node] = &guard;
        let marks = Marks::new(nodes, &out_ids, &wrt_ids);
        let slots: Vec<OnceLock<Vec<Tensor>>> = out_ids.iter().map(|_| OnceLock::new()).collect();
        pool::run_chunks(out_ids.len(), &|s| {
            let o = out_ids[s];
            let seed = marks.live(o).then(|| (o, Tensor::ones(nodes[o].value.shape())));
            let adj = scan(&Values(nodes), &marks, vec![seed]).remove(0);
            let grads = wrt_ids
                .iter()
                .map(|&w| adj_of(&adj, w).unwrap_or_else(|| Tensor::zeros(nodes[w].value.shape())))
                .collect();
            assert!(slots[s].set(grads).is_ok(), "seed {s} scanned twice");
        });
        slots.into_iter().map(|slot| slot.into_inner().expect("every seed is scanned")).collect()
    }
}

/// Which nodes one backward call must visit.
struct Marks {
    /// The earliest `wrt` node: nothing below it can be live.
    lo: usize,
    /// `live[id]`: node `id` depends on some `wrt` node (or is one).
    live: Vec<bool>,
    /// `wrt[id]`: node `id` is asked for, so its adjoint is kept.
    wrt: Vec<bool>,
}

impl Marks {
    /// One forward sweep over the nodes up to the last output.
    fn new(nodes: &[Node], outputs: &[NodeId], wrt: &[NodeId]) -> Self {
        let n = outputs.iter().map(|&o| o + 1).max().unwrap_or(0);
        let mut marks = Marks { lo: n, live: vec![false; n], wrt: vec![false; n] };
        for &w in wrt.iter().filter(|&&w| w < n) {
            marks.live[w] = true;
            marks.wrt[w] = true;
            marks.lo = marks.lo.min(w);
        }
        // Inputs precede their consumers, so one ascending sweep suffices.
        for (id, node) in nodes.iter().enumerate().take(n).skip(marks.lo) {
            if !marks.live[id] {
                marks.live[id] = node.op.inputs().iter().any(|i| marks.live[i]);
            }
        }
        marks
    }

    fn live(&self, id: NodeId) -> bool {
        self.live.get(id).copied().unwrap_or(false)
    }
}

/// The operations the reverse rules are built from. [`Var`] records each one
/// as a tape node; [`Tensor`] evaluates it with the kernel the tape would
/// have used and recycles operands it consumed.
trait Adjoint: Clone {
    /// Applies the unary op `f(input)` to `self`.
    fn un(self, f: impl FnOnce(NodeId) -> Op) -> Self;
    /// Applies the binary op `f(lhs, rhs)` to `(self, rhs)`.
    fn bin(self, rhs: Self, f: impl FnOnce(NodeId, NodeId) -> Op) -> Self;

    fn add(self, rhs: Self) -> Self {
        self.bin(rhs, Op::Add)
    }
    fn mul(self, rhs: Self) -> Self {
        self.bin(rhs, Op::Mul)
    }
    fn div(self, rhs: Self) -> Self {
        self.bin(rhs, Op::Div)
    }
    fn matmul(self, rhs: Self) -> Self {
        self.bin(rhs, Op::Matmul)
    }
    fn neg(self) -> Self {
        self.un(Op::Neg)
    }
    fn exp(self) -> Self {
        self.un(Op::Exp)
    }
    fn t(self) -> Self {
        self.un(Op::Transpose)
    }
    fn sum(self) -> Self {
        self.un(Op::Sum)
    }
    fn scale(self, c: f64) -> Self {
        self.un(|a| Op::MulScalar(a, c))
    }
    fn add_scalar(self, c: f64) -> Self {
        self.un(|a| Op::AddScalar(a, c))
    }
    fn pow_scalar(self, p: f64) -> Self {
        self.un(|a| Op::PowScalar(a, p))
    }
    fn slice_cols(self, from: usize, to: usize) -> Self {
        self.un(|a| Op::SliceCols(a, from, to))
    }
    /// `x * x`, recorded as one `Mul` like [`Var::square`].
    fn square(self) -> Self {
        self.clone().mul(self)
    }
}

impl Adjoint for Var<'_> {
    fn un(self, f: impl FnOnce(NodeId) -> Op) -> Self {
        self.tape.apply(f(self.id))
    }
    fn bin(self, rhs: Self, f: impl FnOnce(NodeId, NodeId) -> Op) -> Self {
        self.tape.apply(f(self.id, rhs.id))
    }
}

impl Adjoint for Tensor {
    fn un(self, f: impl FnOnce(NodeId) -> Op) -> Self {
        VALUE_OPS.incr();
        let out = eval(&f(0), |_| &self);
        self.reclaim();
        out
    }
    fn bin(self, rhs: Self, f: impl FnOnce(NodeId, NodeId) -> Op) -> Self {
        VALUE_OPS.incr();
        let out = eval(&f(0, 1), |i| if i == 0 { &self } else { &rhs });
        self.reclaim();
        rhs.reclaim();
        out
    }
}

/// Where a reverse scan reads the forward pass and puts its constants.
trait Scan {
    type Adj: Adjoint;
    fn op(&self, id: NodeId) -> Cow<'_, Op>;
    /// Forward node `id` as an operand of a VJP.
    fn node(&self, id: NodeId) -> Self::Adj;
    /// Forward value of node `id` (shapes, activation masks).
    fn value(&self, id: NodeId) -> Tensor;
    fn constant(&self, t: Tensor) -> Self::Adj;
}

/// The recorded pass: VJPs become tape nodes.
struct Recorder<'t>(&'t Tape);

impl<'t> Scan for Recorder<'t> {
    type Adj = Var<'t>;
    fn op(&self, id: NodeId) -> Cow<'_, Op> {
        Cow::Owned(self.0.op(id))
    }
    fn node(&self, id: NodeId) -> Var<'t> {
        Var { tape: self.0, id }
    }
    fn value(&self, id: NodeId) -> Tensor {
        self.0.value(id)
    }
    fn constant(&self, t: Tensor) -> Var<'t> {
        self.0.constant(t)
    }
}

/// The value-only pass: reads the node arena directly, so seeds can scan it
/// from several lanes at once.
struct Values<'a>(&'a [Node]);

impl Scan for Values<'_> {
    type Adj = Tensor;
    fn op(&self, id: NodeId) -> Cow<'_, Op> {
        Cow::Borrowed(&self.0[id].op)
    }
    fn node(&self, id: NodeId) -> Tensor {
        self.0[id].value.clone()
    }
    fn value(&self, id: NodeId) -> Tensor {
        self.0[id].value.clone()
    }
    fn constant(&self, t: Tensor) -> Tensor {
        t
    }
}

/// The adjoint reached at `id`, if any.
fn adj_of<A: Clone>(adj: &[Option<A>], id: NodeId) -> Option<A> {
    adj.get(id).cloned().flatten()
}

/// Walks the live nodes from the last output down to the earliest `wrt`,
/// one adjoint array per seed, and returns the arrays. Only `wrt` adjoints
/// survive; every other one is consumed by its node's VJPs.
fn scan<S: Scan>(
    s: &S,
    marks: &Marks,
    seeds: Vec<Option<(NodeId, S::Adj)>>,
) -> Vec<Vec<Option<S::Adj>>> {
    let n = marks.live.len();
    let mut adjs: Vec<Vec<Option<S::Adj>>> = seeds
        .into_iter()
        .map(|seed| {
            let mut adj = vec![None; n];
            if let Some((id, g)) = seed {
                adj[id] = Some(g);
            }
            adj
        })
        .collect();
    for id in (marks.lo..n).rev() {
        if !marks.live[id] || adjs.iter().all(|adj| adj[id].is_none()) {
            continue;
        }
        let op = s.op(id);
        for adj in adjs.iter_mut() {
            let g = if marks.wrt[id] { adj[id].clone() } else { adj[id].take() };
            if let Some(g) = g {
                vjps(s, &op, id, g, &marks.live, adj);
            }
        }
    }
    adjs
}

/// The reverse rules: pushes `g`·∂out/∂input into the adjoint of every live
/// input of `op` (node `out`).
fn vjps<S: Scan>(
    s: &S,
    op: &Op,
    out: NodeId,
    g: S::Adj,
    live: &[bool],
    adj: &mut [Option<S::Adj>],
) {
    use Op::*;
    // Contributions always flow to earlier nodes, so `id` is in range. The
    // contribution is only built when `id` is live.
    macro_rules! acc {
        ($id:expr, $c:expr) => {{
            let id: NodeId = $id;
            if live[id] {
                let c = $c;
                adj[id] = Some(match adj[id].take() {
                    Some(existing) => existing.add(c),
                    None => c,
                });
            }
        }};
    }
    let outv = || s.node(out);
    match op {
        Leaf { .. } => {}
        Add(a, b) => {
            acc!(*a, g.clone());
            acc!(*b, g);
        }
        Sub(a, b) => {
            acc!(*a, g.clone());
            acc!(*b, g.neg());
        }
        Mul(a, b) => {
            acc!(*a, g.clone().mul(s.node(*b)));
            acc!(*b, g.mul(s.node(*a)));
        }
        Div(a, b) => {
            acc!(*a, g.clone().div(s.node(*b)));
            acc!(*b, g.mul(outv()).div(s.node(*b)).neg());
        }
        Neg(a) => acc!(*a, g.neg()),
        AddScalar(a, _) => acc!(*a, g),
        MulScalar(a, c) => acc!(*a, g.scale(*c)),
        PowScalar(a, p) => acc!(*a, g.mul(s.node(*a).pow_scalar(p - 1.0)).scale(*p)),
        Matmul(a, b) => {
            acc!(*a, g.clone().matmul(s.node(*b).t()));
            acc!(*b, s.node(*a).t().matmul(g));
        }
        Transpose(a) => acc!(*a, g.t()),
        Reshape(a, _) => {
            acc!(*a, {
                let shape = s.value(*a).shape().to_vec();
                g.un(|x| Reshape(x, shape))
            })
        }
        Sum(a) => {
            acc!(*a, {
                let shape = s.value(*a).shape().to_vec();
                g.un(|x| ExpandScalar(x, shape))
            })
        }
        SumRows(a) => acc!(*a, g.un(|x| BroadcastCols(x, s.value(*a).cols()))),
        SumCols(a) => acc!(*a, g.un(|x| BroadcastRows(x, s.value(*a).rows()))),
        ExpandScalar(a, _) => acc!(*a, g.sum()),
        BroadcastCols(a, _) => acc!(*a, g.un(SumRows)),
        BroadcastRows(a, _) => acc!(*a, g.un(SumCols)),
        GatherRows(a, idx) => {
            acc!(*a, g.un(|x| ScatterAddRows(x, Arc::clone(idx), s.value(*a).rows())))
        }
        ScatterAddRows(a, idx, _) => acc!(*a, g.un(|x| GatherRows(x, Arc::clone(idx)))),
        GatherElems(a, idx) => {
            acc!(*a, g.un(|x| ScatterAddElems(x, Arc::clone(idx), s.value(*a).numel())))
        }
        ScatterAddElems(a, idx, _) => acc!(*a, g.un(|x| GatherElems(x, Arc::clone(idx)))),
        // ∂(A·x)/∂x applied to g is Aᵀ·g — another Spmm node, so the gradient
        // stays differentiable (HVPs flip the flag back).
        Spmm(m, transposed, a) => acc!(*a, g.un(|x| Spmm(Arc::clone(m), !transposed, x))),
        ConcatCols(a, b) => {
            let na = s.value(*a).cols();
            acc!(*a, g.clone().slice_cols(0, na));
            acc!(*b, g.slice_cols(na, na + s.value(*b).cols()));
        }
        SliceCols(a, from, _) => acc!(*a, g.un(|x| PadCols(x, *from, s.value(*a).cols()))),
        PadCols(a, from, _) => acc!(*a, g.slice_cols(*from, from + s.value(*a).cols())),
        Exp(a) => acc!(*a, g.mul(outv())),
        Ln(a) => acc!(*a, g.div(s.node(*a))),
        Sqrt(a) => acc!(*a, g.scale(0.5).div(outv())),
        // σ' = σ(1-σ)
        Sigmoid(a) => acc!(*a, g.mul(outv()).mul(outv().neg().add_scalar(1.0))),
        // tanh' = 1 - tanh²
        Tanh(a) => acc!(*a, g.mul(outv().square().neg().add_scalar(1.0))),
        Relu(a) => acc!(*a, g.mul(s.constant(positive_mask(&s.value(*a))))),
        Selu(a) => {
            // d/dx = λ for x > 0, λ·α·eˣ for x ≤ 0. The mask is the
            // (constant) activation pattern; the eˣ factor stays
            // differentiable so second-order terms through the negative
            // branch are exact.
            acc!(*a, {
                let mask = s.constant(positive_mask(&s.value(*a)));
                let inv_mask = mask.clone().neg().add_scalar(1.0);
                let deriv = mask
                    .scale(SELU_LAMBDA)
                    .add(inv_mask.mul(s.node(*a).exp()).scale(SELU_LAMBDA * SELU_ALPHA));
                g.mul(deriv)
            })
        }
    }
}

/// The activation pattern `x > 0` as ones and zeros.
fn positive_mask(x: &Tensor) -> Tensor {
    x.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn scalar_tape() -> Tape {
        Tape::new()
    }

    #[test]
    fn grad_of_square() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = x.square();
        let g = tape.grad(y, &[x]);
        assert_eq!(g[0].item(), 6.0);
    }

    #[test]
    fn grad_flows_through_chain() {
        // d/dx [ (2x + 1)² ] = 2(2x+1)·2 = 8x + 4
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(1.5));
        let y = x.scale(2.0).add_scalar(1.0).square();
        let g = tape.grad(y, &[x]);
        assert!((g[0].item() - (8.0 * 1.5 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn grad_matmul() {
        // y = sum(A·B); dy/dA = 1·Bᵀ broadcast, dy/dB = Aᵀ·1
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let y = a.matmul(b).sum();
        let g = tape.grad(y, &[a, b]);
        assert_eq!(g[0].to_vec(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(g[1].to_vec(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn grad_unreachable_is_zero() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(1.0));
        let z = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = x.square();
        let g = tape.grad(y, &[z]);
        assert_eq!(g[0].to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn second_order_square() {
        // y = x³, y' = 3x², y'' = 6x
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(2.0));
        let y = x.pow_scalar(3.0);
        let g = tape.grad_vars(y, &[x]);
        assert!((g[0].item() - 12.0).abs() < 1e-12);
        let gg = tape.grad(g[0], &[x]);
        assert!((gg[0].item() - 12.0).abs() < 1e-12, "y''(2) = 12, got {}", gg[0].item());
    }

    #[test]
    fn second_order_through_mul_chain() {
        // f = (x·y)², ∂f/∂x = 2xy², ∂²f/∂x∂y = 4xy
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = tape.leaf(Tensor::scalar(5.0));
        let f = x.mul(y).square();
        let gx = tape.grad_vars(f, &[x])[0];
        assert!((gx.item() - 2.0 * 3.0 * 25.0).abs() < 1e-9);
        let gxy = tape.grad(gx, &[y]);
        assert!((gxy[0].item() - 4.0 * 15.0).abs() < 1e-9);
    }

    #[test]
    fn grad_gather_scatter() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
        let idx = std::sync::Arc::new(vec![0usize, 2, 2]);
        let y = x.gather_rows(idx).sum();
        let g = tape.grad(y, &[x]);
        // Row 0 gathered once, row 1 never, row 2 twice.
        assert_eq!(g[0].to_vec(), vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn grad_concat_routes_to_both() {
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]));
        let y = a
            .concat_cols(b)
            .mul(tape.constant(Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[2, 2])));
        let g = tape.grad(y.sum(), &[a, b]);
        assert_eq!(g[0].to_vec(), vec![10.0, 30.0]);
        assert_eq!(g[1].to_vec(), vec![20.0, 40.0]);
    }

    #[test]
    fn grad_selu_negative_branch_second_order() {
        // For x < 0: selu(x) = λα(eˣ-1); selu'(x) = λαeˣ; selu''(x) = λαeˣ.
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(-1.0));
        let y = x.selu();
        let g1 = tape.grad_vars(y, &[x])[0];
        let expect1 = SELU_LAMBDA * SELU_ALPHA * (-1.0f64).exp();
        assert!((g1.item() - expect1).abs() < 1e-12);
        let g2 = tape.grad(g1, &[x]);
        assert!((g2[0].item() - expect1).abs() < 1e-12);
    }

    #[test]
    fn grad_div_quotient_rule() {
        // f = a/b; ∂f/∂a = 1/b; ∂f/∂b = -a/b²
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::scalar(6.0));
        let b = tape.leaf(Tensor::scalar(3.0));
        let f = a.div(b);
        let g = tape.grad(f, &[a, b]);
        assert!((g[0].item() - 1.0 / 3.0).abs() < 1e-12);
        assert!((g[1].item() + 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn grad_reshape_roundtrips() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let w = tape.constant(Tensor::from_vec(vec![1.0, 10.0, 100.0, 1000.0], &[4]));
        let y = x.reshape(&[4]).mul(w).sum();
        let g = tape.grad(y, &[x]).remove(0);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.to_vec(), vec![1.0, 10.0, 100.0, 1000.0]);
    }

    #[test]
    fn grad_pad_and_slice_are_adjoint() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
        let w = tape.constant(Tensor::from_vec(vec![5.0, 7.0, 11.0, 13.0, 17.0, 19.0], &[2, 3]));
        let y = x.pad_cols(1, 3).mul(w).sum();
        let g = tape.grad(y, &[x]).remove(0);
        // Only the middle column of w touches x.
        assert_eq!(g.to_vec(), vec![7.0, 17.0]);
    }

    #[test]
    fn grad_broadcast_rows_sums_columns() {
        let tape = scalar_tape();
        let v = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let w = tape.constant(Tensor::from_vec(vec![1.0, 10.0, 100.0, 1000.0, 2.0, 20.0], &[3, 2]));
        let y = v.broadcast_rows(3).mul(w).sum();
        let g = tape.grad(y, &[v]).remove(0);
        assert_eq!(g.to_vec(), vec![103.0, 1030.0]);
    }

    #[test]
    fn grad_pow_scalar_matches_numeric() {
        let tape = scalar_tape();
        let x0 = Tensor::from_vec(vec![0.7, 1.9], &[2]);
        let x = tape.leaf(x0.clone());
        let y = x.pow_scalar(2.5).sum();
        let g = tape.grad(y, &[x]).remove(0);
        let ng =
            crate::ndiff::numeric_grad(|t| t.data().iter().map(|v| v.powf(2.5)).sum(), &x0, 1e-6);
        assert!(g.max_abs_diff(&ng) < 1e-6);
    }

    #[test]
    fn grad_ln_exp_inverse_chain() {
        // d/dx ln(exp(x)) = 1 exactly, through both VJPs.
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![0.3, -1.2, 2.0], &[3]));
        let y = x.exp().ln().sum();
        let g = tape.grad(y, &[x]).remove(0);
        for i in 0..3 {
            assert!((g.get(i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grad_accumulates_across_shared_subexpression() {
        // y = x² + x³ shares x; adjoints must accumulate: y' = 2x + 3x².
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(2.0));
        let y = x.square().add(x.pow_scalar(3.0));
        let g = tape.grad(y, &[x]).remove(0);
        assert!((g.item() - (4.0 + 12.0)).abs() < 1e-12);
    }

    #[test]
    fn grad_nonscalar_output_uses_ones_seed() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let y = x.scale(2.0);
        let g = tape.grad(y, &[x]);
        assert_eq!(g[0].to_vec(), vec![2.0, 2.0, 2.0]);
    }

    // ---- multi-seed backward (ISSUE 6): one scan, N independent adjoints ----

    fn assert_bits_eq(a: &Tensor, b: &Tensor, label: &str) {
        assert_eq!(a.shape(), b.shape(), "{label}: shape");
        for (i, (x, y)) in a.to_vec().iter().zip(b.to_vec().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: [{i}] {x} vs {y}");
        }
    }

    #[test]
    fn grad_vars_multi_bitwise_matches_sequential() {
        // Two "follower losses" sharing a nonlinear subexpression (the shared
        // PDS-build analogue), each differentiated w.r.t. both leaves. The
        // batched scan must reproduce every sequential gradient bit for bit.
        let tape = scalar_tape();
        let a = tape.leaf(Tensor::from_vec(vec![0.3, -1.2, 0.9, 2.0], &[2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![1.1, 0.4, -0.7, 0.25], &[2, 2]));
        let shared = a.matmul(b).selu();
        let l0 = shared.square().sum();
        let l1 = shared.mul(a).sum().add(b.pow_scalar(3.0).sum());
        let wrt = [a, b];

        let multi = tape.grad_vars_multi(&[l0, l1], &wrt);
        assert_eq!(multi.len(), 2);
        for (s, (l, row)) in [l0, l1].iter().zip(multi.iter()).enumerate() {
            let seq = tape.grad_vars(*l, &wrt);
            for (w, (m, q)) in row.iter().zip(seq.iter()).enumerate() {
                assert_bits_eq(&m.value(), &q.value(), &format!("seed {s} wrt {w}"));
            }
        }
    }

    #[test]
    fn grad_vars_multi_gradients_stay_differentiable() {
        // The batched gradients must still be tape vars usable for HVPs:
        // f0 = x³ (f0'' = 6x), f1 = x⁴ (f1'' = 12x²) at x = 2.
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(2.0));
        let f0 = x.pow_scalar(3.0);
        let f1 = x.pow_scalar(4.0);
        let grads = tape.grad_vars_multi(&[f0, f1], &[x]);
        assert!((grads[0][0].item() - 12.0).abs() < 1e-12);
        assert!((grads[1][0].item() - 32.0).abs() < 1e-12);
        let h0 = tape.grad(grads[0][0], &[x]);
        let h1 = tape.grad(grads[1][0], &[x]);
        assert!((h0[0].item() - 12.0).abs() < 1e-12);
        assert!((h1[0].item() - 48.0).abs() < 1e-12);
    }

    #[test]
    fn grad_vars_multi_handles_unreachable_and_empty() {
        let tape = scalar_tape();
        let x = tape.leaf(Tensor::scalar(1.0));
        let z = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = x.square();
        let multi = tape.grad_vars_multi(&[y], &[x, z]);
        assert_eq!(multi[0][0].item(), 2.0);
        assert_eq!(multi[0][1].value().to_vec(), vec![0.0, 0.0]);
        assert!(tape.grad_vars_multi(&[], &[x]).is_empty());
    }
}
