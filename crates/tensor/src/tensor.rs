//! The immutable tensor value type.

use std::sync::Arc;

use crate::dtype::{DType, Element};
use crate::error::TensorError;
use crate::shape::Shape;

/// A contiguous, row-major, immutable tensor, generic over its storage
/// element (default `f32`).
///
/// Storage is shared behind an [`Arc`], so `clone` is O(1). Ops that produce
/// new data allocate a fresh buffer; ops that only reinterpret the shape
/// (`reshape`) share storage.
///
/// Only `Tensor<f32>` participates in autograd and training; `Tensor<F16>`
/// and `Tensor<i8>` are inference-time storage formats (KV caches,
/// quantized weights) produced by the conversion ops in
/// [`crate::ops::quant`]. That split is structural — [`crate::Var`] wraps
/// `Tensor<f32>` only, so a non-f32 tensor can never enter a gradient
/// graph.
#[derive(Clone)]
pub struct Tensor<E: Element = f32> {
    shape: Shape,
    data: Arc<Vec<E>>,
}

impl<E: Element> Tensor<E> {
    // ---------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------

    /// Build a tensor from a flat row-major buffer and a shape.
    pub fn from_vec(data: Vec<E>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::new(data),
        })
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// The storage dtype.
    #[inline]
    pub fn dtype(&self) -> DType {
        E::DTYPE
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimensions as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// The flat row-major data.
    #[inline]
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Reinterpret the shape without copying (element count must match).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor<E> {
        // xlint: allow(transitive-panic-in-request-path): `Shape::new` fails only when the product of `dims` overflows usize, and such dims break the documented contract below (element counts must match) before any request data is involved
        let shape = Shape::new(dims).expect("reshape: invalid shape");
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape {} -> {} changes element count",
            self.shape,
            shape
        );
        Tensor {
            shape,
            data: Arc::clone(&self.data),
        }
    }

    /// Copy out the data as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<E> {
        self.data.as_ref().clone()
    }

    /// Internal: the data for writing in place, copied first if any other
    /// tensor shares it — so no other holder ever sees a change.
    pub(crate) fn make_mut(&mut self) -> &mut [E] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Internal: build from parts without re-validating (callers guarantee
    /// `data.len() == shape.numel()`).
    pub(crate) fn from_parts(shape: Shape, data: Vec<E>) -> Tensor<E> {
        debug_assert_eq!(shape.numel(), data.len());
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }
}

/// `f32`-only constructors and diagnostics (the training surface).
impl Tensor {
    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: Shape(vec![]),
            data: Arc::new(vec![v]),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims).expect("zeros: invalid shape");
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Tensor filled with `v`.
    pub fn full(dims: &[usize], v: f32) -> Self {
        let shape = Shape::new(dims).expect("full: invalid shape");
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![v; n]),
        }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// The single value of a rank-0 or one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// True if any element is NaN or infinite. Used by training-loop
    /// diagnostics and failure-injection tests.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute element (0.0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        ratatouille_util::accum::max_abs_f32(self.data.iter().copied())
    }

    /// Elementwise approximate equality within `tol`, shape-sensitive.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl<E: Element> std::fmt::Debug for Tensor<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            v.fmt_elem(f)?;
        }
        if self.numel() > PREVIEW {
            write!(f, ", … {} more", self.numel() - PREVIEW)?;
        }
        write!(f, "]")
    }
}

impl<E: Element> PartialEq for Tensor<E> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::F16;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]).is_err());
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn clone_shares_storage() {
        let t = Tensor::zeros(&[1024]);
        let u = t.clone();
        assert!(std::ptr::eq(t.data().as_ptr(), u.data().as_ptr()));
    }

    #[test]
    fn reshape_shares_storage() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[6]).unwrap();
        let r = t.reshape(&[2, 3]);
        assert_eq!(r.at(&[1, 2]), 5.0);
        assert!(std::ptr::eq(t.data().as_ptr(), r.data().as_ptr()));
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_wrong_count_panics() {
        Tensor::zeros(&[6]).reshape(&[4]);
    }

    #[test]
    fn item_and_scalar() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn non_finite_detection() {
        let t = Tensor::from_vec(vec![1.0, f32::NAN], &[2]).unwrap();
        assert!(t.has_non_finite());
        assert!(!Tensor::ones(&[3]).has_non_finite());
    }

    #[test]
    fn allclose_respects_shape() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[4]);
        assert!(!a.allclose(&b, 1e-6));
        assert!(a.allclose(&a.clone(), 0.0));
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, -4.0], &[2]).unwrap();
        assert_eq!(t.max_abs(), 4.0);
    }

    #[test]
    fn non_f32_storage_dtypes() {
        let q: Tensor<i8> = Tensor::from_vec(vec![1i8, -2, 3, -4], &[2, 2]).unwrap();
        assert_eq!(q.dtype(), DType::I8);
        assert_eq!(q.data(), &[1, -2, 3, -4]);
        let h: Tensor<F16> = Tensor::from_vec(vec![F16::from_f32(1.5); 3], &[3]).unwrap();
        assert_eq!(h.dtype(), DType::F16);
        assert_eq!(h.data()[0].to_f32(), 1.5);
        // clone/reshape share storage for every dtype
        let r = q.reshape(&[4]);
        assert!(std::ptr::eq(q.data().as_ptr(), r.data().as_ptr()));
    }

    #[test]
    fn debug_preview_per_dtype() {
        let f = format!("{:?}", Tensor::from_vec(vec![1.25f32, 2.0], &[2]).unwrap());
        assert!(f.contains("1.2500"), "{f}");
        let q = format!("{:?}", Tensor::from_vec(vec![-3i8, 7], &[2]).unwrap());
        assert!(q.contains("-3, 7"), "{q}");
    }
}
