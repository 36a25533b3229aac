//! Causal multi-head self-attention for training, fused: the forward and
//! backward kernels behind [`crate::Var::causal_attention`].
//!
//! Both read the packed projection rows `qkv [B·T, 3D]` (`q | k | v`, head
//! `h` at columns `h·dh .. (h + 1)·dh` of each third) and work through one
//! `(batch, head)` matrix at a time in a `[T, T]` scratch, so nothing
//! `[B·H, T, T]`-sized is materialized except the softmax output `p`,
//! which backward reads:
//!
//! * **forward:** `S = Q Kᵀ` on and below the diagonal (`dot_rows`),
//!   `× 1/√dh`, `+ −1e9` outside the window (`+ 0.0` inside it), the
//!   softmax of each row's causal prefix into `p`, then
//!   `ctx = (p ⊙ keep/(1 − rate)) V` (`fma_rows`);
//! * **backward:** `dV = (p ⊙ keep…)ᵀ dC`, then `dP = dC Vᵀ` on and below the
//!   diagonal, its dropout, the softmax backward `p ⊙ (dP − Σ p ⊙ dP)`
//!   and `× 1/√dh` in the same scratch, then `dQ = dS K` and `dK = dSᵀ Q`,
//!   written straight into `d_qkv`.
//!
//! Every output is the chain the unfused op sequence gave it (DESIGN
//! §4b): the products are the causal batched products' kernels over the
//! same operands, the elementwise steps round in the same order, and the
//! three per-part gradients are written as `x + 0.0`, as accumulating
//! the three zero-padded slice gradients did. `var_ops`'
//! `attention_reference` keeps that op sequence and a property holds the
//! two equal bit for bit.
//!
//! **Parallelism.** The matrices are cut into at most
//! [`Attention::lanes`] contiguous lanes, by whole batch rows when there
//! are at least as many batch rows as lanes (each lane then owns whole
//! rows of `ctx` and `d_qkv`), by single matrices otherwise. Each lane
//! gets its own scratch, taken here on the launching thread before the
//! launch (from [`crate::recycle`], and returned to it after): a block a
//! pool task allocated would be freed into that worker's allocator arena
//! and stay resident there. A matrix's arithmetic never depends on the
//! lane it runs in.

use std::marker::PhantomData;
use std::ops::Range;

use super::matmul::{dot_rows, fma_rows, Strides};
use super::nn::softmax_row;
use crate::par::{self, EXP_MACS, STREAM_MACS};
use crate::recycle;

/// The score added outside a local attention window.
const MASKED: f32 = -1e9;

/// The geometry of one attention call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attention {
    /// Batch rows `B`.
    pub(crate) batch: usize,
    /// Positions per batch row `T`.
    pub(crate) t: usize,
    /// Heads `H`.
    pub(crate) heads: usize,
    /// Head width `dh` (`D = H·dh`).
    pub(crate) dh: usize,
    /// Each position attends to itself and the `window − 1` before it;
    /// `None` is the full causal prefix.
    pub(crate) window: Option<usize>,
    /// At most this many pool tasks ([`par::num_threads`] in training).
    pub(crate) lanes: usize,
}

/// The attention-weights dropout of one call: the keep bits over the
/// `[B·H, T, T]` weights (bit `i % 64` of word `i / 64` set where element
/// `i` is kept), and the `1 / keep` a kept weight is multiplied by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dropout<'a> {
    pub(crate) keep: &'a [u64],
    pub(crate) scale: f32,
}

impl Dropout<'_> {
    /// What the weight at flat index `i` is multiplied by.
    fn factor(&self, i: usize) -> f32 {
        if self.keep[i / 64] >> (i % 64) & 1 == 1 {
            self.scale
        } else {
            0.0
        }
    }
}

impl Attention {
    fn d(&self) -> usize {
        self.heads * self.dh
    }

    fn units(&self) -> usize {
        self.batch * self.heads
    }

    fn scale(&self) -> f32 {
        1.0 / (self.dh as f32).sqrt()
    }

    /// `(ctx [B·T, D], p [B·H, T, T])` from `qkv [B·T, 3D]`, with `p` zero
    /// above the diagonal.
    pub(crate) fn forward(&self, qkv: &[f32], drop: Option<Dropout<'_>>) -> (Vec<f32>, Vec<f32>) {
        let (t, dh, d) = (self.t, self.dh, self.d());
        assert_eq!(qkv.len(), self.batch * t * 3 * d, "attention: qkv is not [B·T, 3D]");
        let mut ctx = recycle::take(self.batch * t * d);
        let mut p = recycle::take(self.units() * t * t);
        let (ctx_out, p_out) = (Out::new(&mut ctx), Out::new(&mut p));
        let unit_macs = t * t * (dh + EXP_MACS / 2);
        self.run(4, unit_macs, |u, s| {
            let (b, h) = (u / self.heads, u % self.heads);
            let (tt, rest) = s.split_at_mut(t * t);
            let mut rows = rest.chunks_exact_mut(t * dh);
            let mut next = || rows.next().expect("scratch holds four [T, dh] blocks");
            let (q, k, v, c) = (next(), next(), next(), next());
            self.gather(qkv, b, 0, h, q);
            self.gather(qkv, b, 1, h, k);
            self.gather(qkv, b, 2, h, v);
            dot_rows(q, k, dh, t, |r| 0..r + 1, tt, t);
            // SAFETY(disjoint: p[u·T·T ..][..T·T] — matrix u is the only writer of its own [T, T] block, and each matrix runs in one lane)
            let pu = unsafe { p_out.at(u * t * t, t * t) };
            let scale = self.scale();
            for r in 0..t {
                let row = &mut tt[r * t..][..=r];
                for (c, s) in row.iter_mut().enumerate() {
                    *s = *s * scale;
                    if let Some(w) = self.window {
                        *s = *s + if c + w <= r { MASKED } else { 0.0 };
                    }
                }
                let (prow, masked) = pu[r * t..][..t].split_at_mut(r + 1);
                softmax_row(row, prow);
                masked.fill(0.0);
            }
            c.fill(0.0);
            fma_rows(self.weights(u, pu, drop, tt), Strides::rows(t), v, dh, t, |r| 0..r + 1, c);
            for (r, src) in c.chunks_exact(dh).enumerate() {
                // SAFETY(disjoint: ctx[(b·T + r)·D + h·dh ..][..dh] — matrix (b, h) is the only writer of head h's columns in batch b's rows)
                unsafe { ctx_out.at((b * t + r) * d + h * dh, dh) }.copy_from_slice(src);
            }
        });
        (ctx, p)
    }

    /// `d_qkv [B·T, 3D]` from the forward's `qkv` and `p`, its dropout,
    /// and the context's gradient `dctx [B·T, D]`.
    pub(crate) fn backward(&self, qkv: &[f32], p: &[f32], drop: Option<Dropout<'_>>, dctx: &[f32]) -> Vec<f32> {
        let (t, dh, d) = (self.t, self.dh, self.d());
        assert_eq!(dctx.len(), self.batch * t * d, "attention: dctx is not [B·T, D]");
        let mut dqkv = recycle::take(qkv.len());
        let out = Out::new(&mut dqkv);
        let unit_macs = t * t * (2 * dh + STREAM_MACS);
        self.run(7, unit_macs, |u, s| {
            let (b, h) = (u / self.heads, u % self.heads);
            let (tt, rest) = s.split_at_mut(t * t);
            let mut rows = rest.chunks_exact_mut(t * dh);
            let mut next = || rows.next().expect("scratch holds seven [T, dh] blocks");
            let (q, k, v, dc) = (next(), next(), next(), next());
            let (dq, dk, dv) = (next(), next(), next());
            self.gather(qkv, b, 0, h, q);
            self.gather(qkv, b, 1, h, k);
            self.gather(qkv, b, 2, h, v);
            for (r, row) in dc.chunks_exact_mut(dh).enumerate() {
                row.copy_from_slice(&dctx[(b * t + r) * d + h * dh..][..dh]);
            }
            let pu = &p[u * t * t..][..t * t];
            // dV = P'ᵀ dC, P' the weights the context read.
            dv.fill(0.0);
            fma_rows(self.weights(u, pu, drop, tt), Strides::transposed(t), dc, dh, t, |r| r..t, dv);
            // dP' = dC Vᵀ; its dropout; the softmax backward; × 1/√dh.
            dot_rows(dc, v, dh, t, |r| 0..r + 1, tt, t);
            let scale = self.scale();
            for r in 0..t {
                let (prow, grow) = (&pu[r * t..][..=r], &mut tt[r * t..][..=r]);
                if let Some(drop) = drop {
                    for (c, g) in grow.iter_mut().enumerate() {
                        *g = *g * drop.factor((u * t + r) * t + c);
                    }
                }
                let dot = super::sum_f32(prow.iter().zip(grow.iter()).map(|(&p, &g)| p * g));
                for (g, &p) in grow.iter_mut().zip(prow) {
                    *g = p * (*g - dot) * scale;
                }
            }
            dq.fill(0.0);
            fma_rows(tt, Strides::rows(t), k, dh, t, |r| 0..r + 1, dq);
            dk.fill(0.0);
            fma_rows(tt, Strides::transposed(t), q, dh, t, |r| r..t, dk);
            for (part, grad) in [&*dq, &*dk, &*dv].into_iter().enumerate() {
                for (r, src) in grad.chunks_exact(dh).enumerate() {
                    // SAFETY(disjoint: d_qkv[(b·T + r)·3D + part·D + h·dh ..][..dh] — matrix (b, h) is the only writer of head h's columns of each third in batch b's rows)
                    let dst = unsafe { out.at((b * t + r) * 3 * d + part * d + h * dh, dh) };
                    for (o, &x) in dst.iter_mut().zip(src) {
                        *o = x + 0.0;
                    }
                }
            }
        });
        dqkv
    }

    /// The weights matrix `u`'s context read: its `p`, or with dropout
    /// `p ⊙ keep · scale` on and below the diagonal, formed in `buf`.
    fn weights<'b>(&self, u: usize, p: &'b [f32], drop: Option<Dropout<'_>>, buf: &'b mut [f32]) -> &'b [f32] {
        let Some(drop) = drop else { return p };
        let t = self.t;
        for r in 0..t {
            for c in 0..=r {
                buf[r * t + c] = p[r * t + c] * drop.factor((u * t + r) * t + c);
            }
        }
        buf
    }

    /// Rows `b·T ..` of part `part` (0 = q, 1 = k, 2 = v), head `h`, into
    /// the contiguous `[T, dh]` block `dst`.
    fn gather(&self, qkv: &[f32], b: usize, part: usize, h: usize, dst: &mut [f32]) {
        let (d, dh) = (self.d(), self.dh);
        for (r, row) in dst.chunks_exact_mut(dh).enumerate() {
            row.copy_from_slice(&qkv[(b * self.t + r) * 3 * d + part * d + h * dh..][..dh]);
        }
    }

    /// Run `f(matrix, scratch)` for every `(batch, head)` matrix, across
    /// the lanes, each lane with its own scratch of one `[T, T]` block and
    /// `blocks` `[T, dh]` blocks; a matrix costs `unit_macs`.
    fn run(&self, blocks: usize, unit_macs: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
        let units = self.units();
        let lanes = self.lanes.clamp(1, units.max(1));
        let step = if self.batch >= lanes { self.batch.div_ceil(lanes) * self.heads } else { units.div_ceil(lanes) };
        let per_lane = self.t * self.t + blocks * self.t * self.dh;
        let mut scratch = recycle::take(per_lane * units.div_ceil(step.max(1)));
        let mut lanes: Vec<Lane<'_>> = scratch
            .chunks_exact_mut(per_lane.max(1))
            .zip((0..units).step_by(step.max(1)))
            .map(|(scratch, start)| Lane { units: start..(start + step).min(units), scratch })
            .collect();
        let n = lanes.len();
        // SAFETY(disjoint: lanes[i] — each task owns one lane's matrices and its scratch)
        par::parallel_rows_mut(&mut lanes, n, 1, step * unit_macs, |_, run| {
            for lane in run {
                for u in lane.units.clone() {
                    f(u, lane.scratch);
                }
            }
        });
        drop(lanes);
        recycle::put(scratch);
    }
}

/// One task's share of a call: a run of matrices and the scratch they
/// are computed in.
struct Lane<'a> {
    units: Range<usize>,
    scratch: &'a mut [f32],
}

/// An output buffer that every lane writes its own disjoint parts of
/// through one shared handle.
struct Out<'a> {
    ptr: *mut f32,
    len: usize,
    _buf: PhantomData<&'a mut [f32]>,
}

// SAFETY(invariant: an `Out` only hands out ranges its callers keep disjoint across tasks, of a buffer it borrows mutably for its whole life)
unsafe impl Send for Out<'_> {}
// SAFETY(invariant: shared use only forms slices through `at`, whose callers keep them disjoint)
unsafe impl Sync for Out<'_> {}

impl<'a> Out<'a> {
    fn new(buf: &'a mut [f32]) -> Self {
        Out { ptr: buf.as_mut_ptr(), len: buf.len(), _buf: PhantomData }
    }

    /// `len` floats from `start`.
    ///
    /// # Safety
    ///
    /// No two slices from one `Out` that are alive at the same time may
    /// overlap. The range itself is bounds-checked here.
    // SAFETY(invariant: the caller makes no two live slices from one `Out` overlap; the range is bounds-checked here)
    unsafe fn at(&self, start: usize, len: usize) -> &mut [f32] {
        assert!(start + len <= self.len, "attention: write past the output buffer");
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}
