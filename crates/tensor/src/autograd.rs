//! Reverse-mode automatic differentiation.
//!
//! [`Var`] wraps a [`Tensor`] value in a dynamically-recorded computation
//! graph (define-by-run, like PyTorch). Each op node stores its parents and
//! a backward closure mapping the node's output gradient to per-parent
//! gradients; [`Var::backward`] walks the graph in reverse topological
//! order and accumulates gradients into every node that requires them.
//!
//! Backward consumes the graph it walks. Once an op node has handed its
//! gradient to its parents, its gradient, its backward closure (with the
//! tensors it saved) and its links to its parents are dropped — so the
//! activations and interior gradients of a training step are freed while
//! backward is still running, and the allocations backward makes next
//! reuse that memory instead of faulting in fresh pages. Leaves (the
//! parameters) keep their gradients for the optimizer. A second backward
//! through a consumed node panics rather than silently producing nothing.
//!
//! Graph nodes are reference-counted: leaf parameters (which hold no
//! parents) persist across steps; a node's value lives as long as some
//! handle to it does.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ops;
use crate::tensor::Tensor;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

/// A node's place in the graph.
pub(crate) enum Node {
    /// A leaf or a constant: no parents; a leaf keeps its gradient.
    Leaf,
    /// An op whose backward has not run: its inputs, and the closure
    /// mapping its output gradient to theirs.
    Op { parents: Vec<Var>, backward: BackwardFn },
    /// An op whose backward has run and released everything above.
    Consumed,
}

pub(crate) struct VarInner {
    pub(crate) id: u64,
    pub(crate) value: Tensor,
    pub(crate) grad: Option<Tensor>,
    pub(crate) node: Node,
    pub(crate) requires_grad: bool,
}

/// A differentiable tensor: a node in the autograd graph.
///
/// Cloning a `Var` clones the node handle, not the data — clones share the
/// same value and gradient.
#[derive(Clone)]
pub struct Var(pub(crate) Rc<RefCell<VarInner>>);

impl Var {
    /// A leaf variable that accumulates gradients (a trainable parameter).
    pub fn leaf(value: Tensor) -> Var {
        Var(Rc::new(RefCell::new(VarInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value,
            grad: None,
            node: Node::Leaf,
            requires_grad: true,
        })))
    }

    /// A constant: participates in forward computation but receives no
    /// gradient and records no graph through it.
    pub fn constant(value: Tensor) -> Var {
        Var(Rc::new(RefCell::new(VarInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value,
            grad: None,
            node: Node::Leaf,
            requires_grad: false,
        })))
    }

    /// Build an op node. If no parent requires a gradient the node degrades
    /// to a constant (no graph recorded) — this makes pure inference cheap.
    pub(crate) fn from_op(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Var {
        let needs = parents.iter().any(|p| p.0.borrow().requires_grad);
        if !needs {
            return Var::constant(value);
        }
        Var(Rc::new(RefCell::new(VarInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value,
            grad: None,
            node: Node::Op { parents, backward },
            requires_grad: true,
        })))
    }

    /// Unique node id (useful for debugging and graph inspection).
    pub fn id(&self) -> u64 {
        self.0.borrow().id
    }

    /// A snapshot of the current value (cheap: shared storage).
    pub fn value(&self) -> Tensor {
        self.0.borrow().value.clone()
    }

    /// Dimensions of the value.
    pub fn dims(&self) -> Vec<usize> {
        self.0.borrow().value.dims().to_vec()
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.0.borrow().grad.clone()
    }

    /// Whether this node participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.0.borrow().requires_grad
    }

    /// Clear the accumulated gradient (leaves the value untouched).
    pub fn zero_grad(&self) {
        self.0.borrow_mut().grad = None;
    }

    /// Replace the stored value (loading weights); the graph (if any) is
    /// not invalidated because graphs are rebuilt every step.
    pub fn set_value(&self, value: Tensor) {
        self.0.borrow_mut().value = value;
    }

    /// Run reverse-mode autodiff from this (scalar) node, accumulating
    /// gradients into every reachable leaf with `requires_grad`, and
    /// consume the graph on the way (see the module docs): afterwards
    /// only the leaves hold gradients.
    ///
    /// # Panics
    /// Panics if the value is not a single element, or if an earlier
    /// backward already consumed a node this one would pass through.
    pub fn backward(&self) {
        let numel = self.0.borrow().value.numel();
        assert_eq!(numel, 1, "backward() requires a scalar output, got {numel} elements");
        self.backward_with(Tensor::scalar(1.0));
    }

    /// Reverse-mode autodiff seeded with an explicit output gradient
    /// (must match the value's shape); consumes the graph like
    /// [`Var::backward`].
    pub fn backward_with(&self, seed: Tensor) {
        {
            let inner = self.0.borrow();
            assert_eq!(
                inner.value.dims(),
                seed.dims(),
                "backward seed shape {:?} != value shape {:?}",
                seed.dims(),
                inner.value.dims()
            );
        }
        let order = self.topo_order();
        accumulate(self, seed);
        // Walk in reverse topological order: every node sees its full
        // output gradient before propagating to parents. Each op is
        // consumed as it is visited, and `order`'s handle to it dropped,
        // so nothing keeps a finished node's tensors alive.
        for node in order.into_iter().rev() {
            let (grad, parents, backward) = {
                let mut inner = node.0.borrow_mut();
                match std::mem::replace(&mut inner.node, Node::Consumed) {
                    Node::Op { parents, backward } => (inner.grad.take(), parents, backward),
                    leaf => {
                        inner.node = leaf; // leaves keep their gradients
                        continue;
                    }
                }
            };
            let Some(grad) = grad else { continue };
            let parent_grads = backward(&grad);
            drop((grad, backward));
            assert_eq!(
                parent_grads.len(),
                parents.len(),
                "backward closure returned {} grads for {} parents",
                parent_grads.len(),
                parents.len()
            );
            for (p, g) in parents.iter().zip(parent_grads) {
                if p.0.borrow().requires_grad {
                    accumulate(p, g);
                }
            }
        }
    }

    /// Nodes reachable from `self`, parents before children.
    ///
    /// # Panics
    /// Panics on reaching a node an earlier backward consumed.
    fn topo_order(&self) -> Vec<Var> {
        let mut order = Vec::new();
        let mut visited = ratatouille_util::collections::det_set();
        // Iterative DFS (graphs from long sequence models can be deep
        // enough to overflow the stack with recursion).
        enum Frame {
            Enter(Var),
            Exit(Var),
        }
        let mut stack = vec![Frame::Enter(self.clone())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    let inner = v.0.borrow();
                    if !visited.insert(inner.id) {
                        continue;
                    }
                    stack.push(Frame::Exit(v.clone()));
                    match &inner.node {
                        Node::Leaf => {}
                        Node::Op { parents, .. } => {
                            stack.extend(parents.iter().map(|p| Frame::Enter(p.clone())));
                        }
                        Node::Consumed => panic!(
                            "backward() through node {} of a graph an earlier backward() consumed",
                            inner.id
                        ),
                    }
                }
                Frame::Exit(v) => order.push(v),
            }
        }
        order
    }
}

fn accumulate(v: &Var, g: Tensor) {
    let mut inner = v.0.borrow_mut();
    assert_eq!(
        inner.value.dims(),
        g.dims(),
        "gradient shape {:?} != value shape {:?} (node {})",
        g.dims(),
        inner.value.dims(),
        inner.id
    );
    inner.grad = Some(match inner.grad.take() {
        Some(acc) => ops::add(&acc, &g),
        None => g,
    });
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.0.borrow();
        let node = match &inner.node {
            Node::Leaf => "leaf".to_string(),
            Node::Op { parents, .. } => format!("op of {}", parents.len()),
            Node::Consumed => "consumed".to_string(),
        };
        write!(
            f,
            "Var(id={}, value={:?}, grad={}, {node})",
            inner.id,
            inner.value,
            inner.grad.is_some(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_holds_value_and_grad() {
        let v = Var::leaf(Tensor::scalar(3.0));
        assert_eq!(v.value().item(), 3.0);
        assert!(v.grad().is_none());
        assert!(v.requires_grad());
    }

    #[test]
    fn constant_records_no_graph() {
        let a = Var::constant(Tensor::scalar(2.0));
        let b = Var::constant(Tensor::scalar(3.0));
        let c = a.mul(&b);
        assert!(!c.requires_grad());
        assert_eq!(c.topo_order().len(), 1);
    }

    #[test]
    fn simple_chain_backward() {
        // y = (x * x) summed; dy/dx = 2x
        let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        let y = x.mul(&x).sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn gradient_accumulates_across_backwards() {
        let x = Var::leaf(Tensor::scalar(2.0));
        let y = x.mul(&x); // scalar
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 4.0);
        let y2 = x.mul(&x);
        y2.backward();
        assert_eq!(x.grad().unwrap().item(), 8.0);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_sums_both_paths() {
        // y = x*x + x*x ; dy/dx = 4x
        let x = Var::leaf(Tensor::scalar(3.0));
        let a = x.mul(&x);
        let b = x.mul(&x);
        let y = a.add(&b);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 12.0);
    }

    #[test]
    fn shared_subexpression_visited_once() {
        // y = (x*x) used twice via the SAME node: z = x*x; y = z + z
        // dy/dx = 4x, and z's backward must run once with grad 2.
        let x = Var::leaf(Tensor::scalar(5.0));
        let z = x.mul(&x);
        let y = z.add(&z);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 20.0);
    }

    #[test]
    fn backward_consumes_interior_nodes_and_keeps_leaf_gradients() {
        let x = Var::leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let h = x.mul(&x);
        let y = h.sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 4.0]);
        assert!(h.grad().is_none() && y.grad().is_none(), "interior gradients are dropped");
        assert!(matches!(h.0.borrow().node, Node::Consumed));
        // The forward values stay readable through a held handle.
        assert_eq!(h.value().data(), &[1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "an earlier backward() consumed")]
    fn second_backward_on_a_consumed_graph_panics() {
        let x = Var::leaf(Tensor::scalar(2.0));
        let y = x.mul(&x);
        y.backward();
        y.backward();
    }

    #[test]
    #[should_panic(expected = "an earlier backward() consumed")]
    fn backward_through_a_consumed_subgraph_panics() {
        let x = Var::leaf(Tensor::scalar(2.0));
        let h = x.mul(&x);
        h.add_scalar(1.0).backward();
        h.add_scalar(2.0).backward();
    }

    #[test]
    #[should_panic(expected = "requires a scalar")]
    fn backward_on_non_scalar_panics() {
        let x = Var::leaf(Tensor::ones(&[2]));
        x.mul(&x).backward();
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let x = Var::leaf(Tensor::scalar(1.0));
        let mut y = x.clone();
        for _ in 0..5000 {
            y = y.add_scalar(0.0);
        }
        let loss = y.sum();
        loss.backward();
        assert_eq!(x.grad().unwrap().item(), 1.0);
    }
}
