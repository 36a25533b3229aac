//! The immutable tensor value type.

use std::sync::Arc;

use crate::error::TensorError;
use crate::shape::Shape;

/// A contiguous, row-major, immutable `f32` tensor.
///
/// Storage is shared behind an [`Arc`], so `clone` is O(1). Ops that produce
/// new data allocate a fresh buffer (a large one from [`crate::recycle`],
/// which takes it back when the last tensor sharing it drops); ops that
/// only reinterpret the shape (`reshape`) share storage.
///
/// The narrower inference formats live outside it: int8 weight codes in
/// [`crate::ops::quant::QuantizedMatrix`], f16 KV rows as
/// [`crate::Element`] slices in the decode path's block pool.
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Storage>,
}

/// A tensor's buffer, and whether it goes back to [`crate::recycle`]
/// when the last tensor sharing it drops: kernel outputs do, data a
/// caller hands in does not.
pub(crate) struct Storage {
    buf: Vec<f32>,
    recycled: bool,
}

impl Clone for Storage {
    /// A private copy for [`Tensor::make_mut`]; a fresh allocation, so
    /// not recycled.
    fn clone(&self) -> Self {
        Storage { buf: self.buf.clone(), recycled: false }
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        if self.recycled {
            crate::recycle::put(std::mem::take(&mut self.buf));
        }
    }
}

impl Tensor {
    // ---------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------

    /// Build a tensor from a flat row-major buffer and a shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::new(Storage { buf: data, recycled: false }),
        })
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

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
    pub fn data(&self) -> &[f32] {
        &self.data.buf
    }

    /// Reinterpret the shape without copying (element count must match).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
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
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.buf.clone()
    }

    /// Internal: the data for writing in place, copied first if any other
    /// tensor shares it — so no other holder ever sees a change.
    pub(crate) fn make_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).buf.as_mut_slice()
    }

    /// Test-only: a weak handle on the storage, which upgrades while any
    /// tensor still shares it.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> std::sync::Weak<Storage> {
        Arc::downgrade(&self.data)
    }

    /// Internal: a kernel's output, without re-validating (callers
    /// guarantee `data.len() == shape.numel()`). Large outputs come from
    /// [`crate::recycle`] and go back to it.
    pub(crate) fn from_parts(shape: Shape, data: Vec<f32>) -> Tensor {
        debug_assert_eq!(shape.numel(), data.len());
        Tensor {
            shape,
            data: Arc::new(Storage { buf: data, recycled: true }),
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            shape: Shape(vec![]),
            data: Arc::new(Storage { buf: vec![v], recycled: false }),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims).expect("zeros: invalid shape");
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(Storage { buf: vec![0.0; n], recycled: false }),
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
            data: Arc::new(Storage { buf: vec![v; n], recycled: false }),
        }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data.buf[self.shape.offset(idx)]
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
        self.data.buf[0]
    }

    /// True if any element is NaN or infinite. Used by training-loop
    /// diagnostics and failure-injection tests.
    pub fn has_non_finite(&self) -> bool {
        self.data().iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute element (0.0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        ratatouille_util::accum::max_abs_f32(self.data().iter().copied())
    }

    /// Elementwise approximate equality within `tol`, shape-sensitive.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data()
                .iter()
                .zip(other.data())
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data().iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.numel() > PREVIEW {
            write!(f, ", … {} more", self.numel() - PREVIEW)?;
        }
        write!(f, "]")
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn debug_preview_per_dtype() {
        let f = format!("{:?}", Tensor::from_vec(vec![1.25f32, 2.0], &[2]).unwrap());
        assert!(f.contains("1.2500"), "{f}");
        // An int8 matrix previews its codes the same way, never all of them.
        let w = Tensor::from_vec((0..40).map(|i| i as f32 - 20.0).collect(), &[4, 10]).unwrap();
        let q = format!("{:?}", crate::ops::quantize_per_row(&w));
        assert!(q.contains("[4, 10]") && q.contains("[-127, -121, "), "{q}");
        assert!(q.contains("… 32 more"), "{q}");
    }
}
