//! Matrix multiplication kernels (2-D and batched 3-D): cache-blocked,
//! panel-packed, and row-parallel on the persistent worker pool.
//!
//! From [`PACK_MIN_M`] output rows up, the 2-D `matmul` packs the B
//! operand once per call into `KC × NR` panels (shared read-only across
//! workers), then each worker sweeps its row range with a
//! register-blocked `MR × NR` microkernel — 8-lane FMA when the host has
//! AVX2 (see [`super::simd`]), otherwise a k-unrolled portable loop the
//! auto-vectorizer handles. The microkernel reads A through [`Strides`],
//! so `matmul_transa` runs it straight over the transposed storage, and
//! it takes a B row stride, so below `PACK_MIN_M` (the decode batch)
//! `matmul` runs rows in fours over the raw `[K, N]` rows with no packing
//! when `N % NR == 0`, as `bmm` and `bmm_transa` do (every attention head
//! here is 32 wide); the `M % 4` rows left over, the `M = 1` decode GEMV,
//! other widths and non-AVX hosts take the row-accumulate kernel, whose
//! chain per output is the microkernel's when `N % NR == 0`.
//! `matmul_transb` at `M ≥ 2` and `bmm_transb` pair rows through
//! [`simd::dot_pair`], which replays `simd::dot` per output, so each
//! output has the bits of its own dot.
//!
//! Training attention's causal products over square `[T, T]` matrices
//! read and write only the lower triangle, through the same row kernels
//! ([`dot_rows`] for the scores, [`fma_rows`] with per-row `k` ranges for
//! the rest), one matrix at a time inside the fused kernel
//! (`ops::attention`). A skipped entry is a `±0·x` term added to a chain
//! that starts at `+0`, so they equal the dense products bit for bit on
//! the triangle for finite operands. The batched `*_causal` wrappers the
//! unfused op chain called remain for the tests' reference chain.
//!
//! **Determinism contract:** blocking parameters are fixed constants,
//! every output element accumulates over `k` in ascending order within
//! one worker (register tiles change which independent chains are in
//! flight together, never a chain), and chunk boundaries depend only on
//! shape (which fixes the per-row work `par` gates fan-out on) and
//! `par::num_threads()` — never on scheduling — so results are
//! byte-identical for any thread count. Dense paths are branch-free (no
//! `a == 0.0` skips), which is both faster and what keeps the microkernel
//! vectorizable.

use std::ops::Range;

use crate::ops::{fill_rows, last_axis_rows, simd};
use crate::par::{parallel_chunks, parallel_rows_mut, COPY_MACS};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// K-blocking: one packed `KC × NR` panel is 16 KiB — L1-resident.
const KC: usize = 256;
/// Microkernel width: two 8-lane vectors.
const NR: usize = 16;
/// Microkernel height (rows of A per register block).
const MR: usize = 4;
/// From this many output rows up, `matmul` packs B into `KC × NR` panels.
/// Below it a `K × NR` strip of B is read by at most `PACK_MIN_M / MR`
/// tiles, which costs less straight from the raw `[K, N]` rows than a copy
/// of all of B per call (the decode batch). The first `M` at which packing
/// is ahead on one thread at the model widths, from the `M` sweep in
/// EXPERIMENTS.md's "Decode-sized GEMMs and an 8-lane `tanh`" section.
const PACK_MIN_M: usize = 32;
/// Tile edge for the blocked transpose.
const TRANSPOSE_TILE: usize = 32;
/// Floats of B that `matmul_transb` keeps hot while every row pair of a
/// worker's chunk passes over them: 32 KiB, inside L1.
const DOT_BLOCK_FLOATS: usize = 8 * 1024;

/// Where a kernel finds `A(r, k)`: at `a[r·row + k·k]`. Row-major A has
/// `k = 1`; the transposed read of a `[K, M]` buffer (`matmul_transa`,
/// `bmm_transa`) has `row = 1, k = M`, four rows of one `k` contiguous.
#[derive(Debug, Clone, Copy)]
pub(super) struct Strides {
    row: usize,
    k: usize,
}

impl Strides {
    pub(super) fn rows(k: usize) -> Strides {
        Strides { row: k, k: 1 }
    }

    pub(super) fn transposed(m: usize) -> Strides {
        Strides { row: 1, k: m }
    }

    fn at(self, r: usize, kk: usize) -> usize {
        r * self.row + kk * self.k
    }
}

// ---------------------------------------------------------------------------
// B-panel packing
// ---------------------------------------------------------------------------

/// B `[K, N]` repacked as `KC × NR` panels: for each k-block, the full
/// `NR`-wide column panels are stored contiguously (panel-major, rows of
/// `NR` within a panel). The `n % NR` remainder columns stay unpacked and
/// are handled from the raw operand.
struct PackedB {
    data: Vec<f32>,
    /// `(k0, kc, base offset into data)` per k-block, ascending `k0`.
    k_blocks: Vec<(usize, usize, usize)>,
    /// Number of full `NR`-wide panels (`n / NR`).
    n_full: usize,
}

fn pack_b(b: &[f32], k: usize, n: usize) -> PackedB {
    let n_full = n / NR;
    let mut data = Vec::with_capacity(k * n_full * NR);
    let mut k_blocks = Vec::with_capacity(k.div_ceil(KC));
    let mut k0 = 0usize;
    while k0 < k {
        let kc = KC.min(k - k0);
        k_blocks.push((k0, kc, data.len()));
        for nb in 0..n_full {
            for kk in 0..kc {
                let src = (k0 + kk) * n + nb * NR;
                data.extend_from_slice(&b[src..src + NR]);
            }
        }
        k0 += kc;
    }
    PackedB {
        data,
        k_blocks,
        n_full,
    }
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// Portable panel microkernel: one row of A (`A(kk)` at `a[kk·ks]`)
/// against one `kc × NR` panel, accumulating into an `NR`-wide output
/// slice. `k` ascends left-to-right so the accumulation order matches
/// the AVX variants element-for-element.
fn mk_row_portable(a: &[f32], ks: usize, panel: &[f32], kc: usize, o: &mut [f32]) {
    let o = &mut o[..NR];
    let mut kk = 0usize;
    while kk + 4 <= kc {
        let (a0, a1, a2, a3) = (a[kk * ks], a[(kk + 1) * ks], a[(kk + 2) * ks], a[(kk + 3) * ks]);
        let b0 = &panel[kk * NR..kk * NR + NR];
        let b1 = &panel[(kk + 1) * NR..(kk + 1) * NR + NR];
        let b2 = &panel[(kk + 2) * NR..(kk + 2) * NR + NR];
        let b3 = &panel[(kk + 3) * NR..(kk + 3) * NR + NR];
        for j in 0..NR {
            o[j] = (((o[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
        }
        kk += 4;
    }
    while kk < kc {
        let av = a[kk * ks];
        let b0 = &panel[kk * NR..kk * NR + NR];
        for j in 0..NR {
            o[j] += av * b0[j];
        }
        kk += 1;
    }
}

/// How many B rows ahead [`mk_avx_4x16`] prefetches a raw strip.
const PREFETCH_ROWS: usize = 16;

/// AVX2+FMA microkernel: `MR = 4` rows of A (`A(r, kk)` at
/// `a[s.at(r, kk)]`) against `kc` rows of an `NR`-wide B block (row
/// stride `ldb`: `NR` in a packed panel, `N` over a raw `[K, N]` operand),
/// accumulating into 4 output rows (row stride `ldo`).
///
/// Over raw rows, consecutive rows of a strip lie `N` floats apart
/// (1.5–2 KB in the wider decode projections), a stride the hardware
/// streamer does not follow, so the strip's row `PREFETCH_ROWS` ahead is
/// prefetched (clamped to the last row): its first and last float, the
/// two cache lines a 64-byte row not aligned to 64 spans. A prefetch
/// changes no result.
// SAFETY(invariant: caller-verified AVX2+FMA plus in-bounds non-aliasing pointers)
// Callers must have verified AVX2+FMA via `use_avx2_fma()`
// (`#[target_feature]`) and pass `a` valid for reads at `s.at(r, kk)`
// for `r < 4`, `kk < kc`, `b` valid for `NR` reads at each `kk * ldb`,
// and `o` valid for read+write over 4 rows of stride `ldo` × NR columns,
// not aliasing `a`/`b`. All accesses are unaligned (`loadu`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mk_avx_4x16(a: *const f32, s: Strides, b: *const f32, ldb: usize, kc: usize, o: *mut f32, ldo: usize) {
    use std::arch::x86_64::*;
    let mut acc00 = _mm256_loadu_ps(o);
    let mut acc01 = _mm256_loadu_ps(o.add(8));
    let mut acc10 = _mm256_loadu_ps(o.add(ldo));
    let mut acc11 = _mm256_loadu_ps(o.add(ldo + 8));
    let mut acc20 = _mm256_loadu_ps(o.add(2 * ldo));
    let mut acc21 = _mm256_loadu_ps(o.add(2 * ldo + 8));
    let mut acc30 = _mm256_loadu_ps(o.add(3 * ldo));
    let mut acc31 = _mm256_loadu_ps(o.add(3 * ldo + 8));
    let raw = ldb != NR;
    for kk in 0..kc {
        if raw {
            // SAFETY(invariant: the prefetched row is clamped to `kc − 1`, so both addresses are ones B is valid at)
            // `b` is valid for `NR` reads at every `kk * ldb` with `kk < kc`;
            // the offsets are computed from the clamped row and stay
            // inside its `NR` floats, never past them.
            let ahead = b.add((kk + PREFETCH_ROWS).min(kc - 1) * ldb);
            _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
            _mm_prefetch::<_MM_HINT_T0>(ahead.add(NR - 1).cast());
        }
        let b0 = _mm256_loadu_ps(b.add(kk * ldb));
        let b1 = _mm256_loadu_ps(b.add(kk * ldb + 8));
        let ak = a.add(kk * s.k);
        let a0 = _mm256_set1_ps(*ak);
        acc00 = _mm256_fmadd_ps(a0, b0, acc00);
        acc01 = _mm256_fmadd_ps(a0, b1, acc01);
        let a1 = _mm256_set1_ps(*ak.add(s.row));
        acc10 = _mm256_fmadd_ps(a1, b0, acc10);
        acc11 = _mm256_fmadd_ps(a1, b1, acc11);
        let a2 = _mm256_set1_ps(*ak.add(2 * s.row));
        acc20 = _mm256_fmadd_ps(a2, b0, acc20);
        acc21 = _mm256_fmadd_ps(a2, b1, acc21);
        let a3 = _mm256_set1_ps(*ak.add(3 * s.row));
        acc30 = _mm256_fmadd_ps(a3, b0, acc30);
        acc31 = _mm256_fmadd_ps(a3, b1, acc31);
    }
    _mm256_storeu_ps(o, acc00);
    _mm256_storeu_ps(o.add(8), acc01);
    _mm256_storeu_ps(o.add(ldo), acc10);
    _mm256_storeu_ps(o.add(ldo + 8), acc11);
    _mm256_storeu_ps(o.add(2 * ldo), acc20);
    _mm256_storeu_ps(o.add(2 * ldo + 8), acc21);
    _mm256_storeu_ps(o.add(3 * ldo), acc30);
    _mm256_storeu_ps(o.add(3 * ldo + 8), acc31);
}

/// AVX2+FMA microkernel for a single row (the `m % MR` remainder). Each
/// output element's FMA chain is identical to its chain in
/// [`mk_avx_4x16`], so row grouping never changes results.
// SAFETY(invariant: the `mk_avx_4x16` contract restricted to one row)
// Caller verified AVX2+FMA, `a` valid for reads at `kk * ks`, `b` for
// `NR` reads at each `kk * ldb` (`kk < kc`), `o` for NR non-aliasing
// read+writes; unaligned access only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mk_avx_1x16(a: *const f32, ks: usize, b: *const f32, ldb: usize, kc: usize, o: *mut f32) {
    use std::arch::x86_64::*;
    let mut acc0 = _mm256_loadu_ps(o);
    let mut acc1 = _mm256_loadu_ps(o.add(8));
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(b.add(kk * ldb));
        let b1 = _mm256_loadu_ps(b.add(kk * ldb + 8));
        let av = _mm256_set1_ps(*a.add(kk * ks));
        acc0 = _mm256_fmadd_ps(av, b0, acc0);
        acc1 = _mm256_fmadd_ps(av, b1, acc1);
    }
    _mm256_storeu_ps(o, acc0);
    _mm256_storeu_ps(o.add(8), acc1);
}

/// Unpacked row-accumulate: `o[0..n] += Σ_k a[kk] · b[kk, 0..n]` for a
/// row-major `b: [k, n]`, `k` ascending. Used where B is not packed and
/// the microkernel's 4-row tiles do not apply: the `m % 4` rows left over
/// (the `m = 1` decode GEMV among them), `n` that is not whole tiles, and
/// hosts without AVX2.
fn accumulate_row(o: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    debug_assert_eq!(a.len(), k);
    debug_assert!(b.len() >= k * n);
    debug_assert_eq!(o.len(), n);
    #[cfg(target_arch = "x86_64")]
    if simd::use_avx2_fma() {
        // SAFETY(invariant: `use_avx2_fma()` just returned true and the bounds hold)
        // Meets the `#[target_feature]` contract; the debug-asserted
        // bounds (`a.len() == k`, `b.len() >= k*n`, `o.len() == n`) match
        // the slice-derived pointers `accumulate_row_avx` offsets within.
        unsafe { accumulate_row_avx(o, a, b, k, n) };
        return;
    }
    let mut kk = 0usize;
    while kk + 4 <= k {
        let (a0, a1, a2, a3) = (a[kk], a[kk + 1], a[kk + 2], a[kk + 3]);
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        for j in 0..n {
            o[j] = (((o[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
        }
        kk += 4;
    }
    while kk < k {
        let av = a[kk];
        let b0 = &b[kk * n..kk * n + n];
        for j in 0..n {
            o[j] += av * b0[j];
        }
        kk += 1;
    }
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — borrows carry validity)
// Callers must have verified AVX2+FMA. Pointers derive from the borrowed
// slices, so validity and non-aliasing follow from the borrows; every
// offset is in bounds given `a.len() == k`, `b.len() >= k*n`,
// `o.len() == n` (loops guard with `kk + 4 <= k`, `j + 8 <= n`,
// `j < n`). Unaligned access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn accumulate_row_avx(o: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    use std::arch::x86_64::*;
    let op = o.as_mut_ptr();
    let bp = b.as_ptr();
    let mut kk = 0usize;
    while kk + 4 <= k {
        let a0 = _mm256_set1_ps(a[kk]);
        let a1 = _mm256_set1_ps(a[kk + 1]);
        let a2 = _mm256_set1_ps(a[kk + 2]);
        let a3 = _mm256_set1_ps(a[kk + 3]);
        let r0 = bp.add(kk * n);
        let r1 = bp.add((kk + 1) * n);
        let r2 = bp.add((kk + 2) * n);
        let r3 = bp.add((kk + 3) * n);
        let mut j = 0usize;
        while j + 8 <= n {
            let mut v = _mm256_loadu_ps(op.add(j));
            v = _mm256_fmadd_ps(a0, _mm256_loadu_ps(r0.add(j)), v);
            v = _mm256_fmadd_ps(a1, _mm256_loadu_ps(r1.add(j)), v);
            v = _mm256_fmadd_ps(a2, _mm256_loadu_ps(r2.add(j)), v);
            v = _mm256_fmadd_ps(a3, _mm256_loadu_ps(r3.add(j)), v);
            _mm256_storeu_ps(op.add(j), v);
            j += 8;
        }
        while j < n {
            let mut v = *op.add(j);
            v += a[kk] * *r0.add(j);
            v += a[kk + 1] * *r1.add(j);
            v += a[kk + 2] * *r2.add(j);
            v += a[kk + 3] * *r3.add(j);
            *op.add(j) = v;
            j += 1;
        }
        kk += 4;
    }
    while kk < k {
        let av = _mm256_set1_ps(a[kk]);
        let r0 = bp.add(kk * n);
        let mut j = 0usize;
        while j + 8 <= n {
            let v = _mm256_fmadd_ps(av, _mm256_loadu_ps(r0.add(j)), _mm256_loadu_ps(op.add(j)));
            _mm256_storeu_ps(op.add(j), v);
            j += 8;
        }
        while j < n {
            *op.add(j) += a[kk] * *r0.add(j);
            j += 1;
        }
        kk += 1;
    }
}

/// The packed GEMM inner driver: `out[rows, :] += A[rows, :] @ B` for a
/// worker's row range, sweeping k-blocks (ascending) × panels × rows.
/// `a` holds the whole left operand, read through `s`.
fn gemm_rows_packed(
    rows: Range<usize>,
    chunk: &mut [f32],
    a: &[f32],
    s: Strides,
    pb: &PackedB,
    b_raw: &[f32],
    n: usize,
) {
    chunk.fill(0.0);
    #[cfg(target_arch = "x86_64")]
    let avx = simd::use_avx2_fma();
    #[cfg(not(target_arch = "x86_64"))]
    let avx = false;
    let n_edge_start = pb.n_full * NR;
    for &(k0, kc, base) in &pb.k_blocks {
        for nb in 0..pb.n_full {
            let panel = &pb.data[base + nb * kc * NR..base + (nb + 1) * kc * NR];
            let mut r = rows.start;
            while r < rows.end {
                let local = r - rows.start;
                let take = MR.min(rows.end - r);
                #[cfg(target_arch = "x86_64")]
                if avx {
                    // SAFETY(invariant: `avx` held and all microkernel accesses stay in bounds)
                    // `use_avx2_fma()` meets the `#[target_feature]`
                    // contract. The microkernels read A at
                    // `s.at(r + rr, k0 + kk)` for `rr < take`, `kk < kc`,
                    // at most `s.at(m - 1, k - 1) < a.len()`; `panel`
                    // holds exactly `kc * NR` floats; `o_ptr` writes `take`
                    // rows of stride `n` inside `chunk`, the worker's
                    // exclusive &mut range.
                    unsafe {
                        let a_ptr = a.as_ptr().add(s.at(r, k0));
                        let o_ptr = chunk.as_mut_ptr().add(local * n + nb * NR);
                        if take == MR {
                            mk_avx_4x16(a_ptr, s, panel.as_ptr(), NR, kc, o_ptr, n);
                        } else {
                            for rr in 0..take {
                                mk_avx_1x16(a_ptr.add(rr * s.row), s.k, panel.as_ptr(), NR, kc, o_ptr.add(rr * n));
                            }
                        }
                    }
                    r += take;
                    continue;
                }
                let _ = avx;
                for rr in 0..take {
                    let o_row = &mut chunk[(local + rr) * n + nb * NR..(local + rr) * n + nb * NR + NR];
                    mk_row_portable(&a[s.at(r + rr, k0)..], s.k, panel, kc, o_row);
                }
                r += take;
            }
        }
        // n % NR remainder columns, straight from the raw operand.
        if n_edge_start < n {
            for (local, row) in rows.clone().enumerate() {
                let o_row = &mut chunk[local * n..(local + 1) * n];
                for kk in 0..kc {
                    let av = a[s.at(row, k0 + kk)];
                    let b_row = &b_raw[(k0 + kk) * n..(k0 + kk) * n + n];
                    for j in n_edge_start..n {
                        o_row[j] += av * b_row[j];
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public kernels
// ---------------------------------------------------------------------------

/// `C = A @ B` for `a: [M,K]`, `b: [K,N]` → `[M,N]`.
///
/// # Panics
/// Panics unless both inputs are rank-2 with matching inner dimension.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul: lhs must be rank-2, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul: rhs must be rank-2, got {}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k, k2,
        "matmul: inner dims differ, {} vs {}",
        a.shape(),
        b.shape()
    );
    let start = obs::Clock::now();
    let out = matmul_raw(a.data(), Strides::rows(k), b.data(), m, k, n);
    obs::static_histogram!("tensor_matmul_ns").observe(start.elapsed_ns());
    Tensor::from_parts(Shape(vec![m, n]), out)
}

/// Kernel body shared by [`matmul`] and [`matmul_transa`]: `A @ B` with
/// `A: [M, K]` read from `ad` through `s`.
fn matmul_raw(ad: &[f32], s: Strides, bd: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let packed = m >= PACK_MIN_M && n >= NR;
    if !packed && s.k != 1 {
        // The row kernel below reads rows of A; a transposed A this small
        // is cheaper to copy than to gather row by row.
        let mut at = vec![0.0f32; m * k];
        transpose_into(&mut at, ad, k, m);
        return matmul_raw(&at, Strides::rows(k), bd, m, k, n);
    }
    let mut out = vec![0.0f32; m * n];
    if !packed {
        // Packing can't amortize (decode-sized or skinny output): rows in
        // fours through the microkernel over B's raw rows where its tiles
        // fit, the rest through the row-accumulate kernel — one FMA chain
        // per output either way.
        let tiles = n % NR == 0 && simd::use_avx2_fma();
        // SAFETY(disjoint: out[rows] — workers receive non-overlapping row chunks of `out`)
        parallel_rows_mut(&mut out, m, n, k * n, |rows, chunk| {
            let tiled = if tiles { rows.len() / MR * MR } else { 0 };
            if tiled > 0 {
                fma_rows(&ad[rows.start * k..], s, bd, n, tiled, |_| 0..k, &mut chunk[..tiled * n]);
            }
            for (local, row) in rows.enumerate().skip(tiled) {
                let o_row = &mut chunk[local * n..(local + 1) * n];
                accumulate_row(o_row, &ad[row * k..(row + 1) * k], bd, k, n);
            }
        });
        return out;
    }
    // Pack once on the launching thread; workers share it read-only.
    let pb = pack_b(bd, k, n);
    // SAFETY(disjoint: out[rows] — workers receive non-overlapping row chunks of `out`)
    parallel_rows_mut(&mut out, m, n, k * n, |rows, chunk| {
        gemm_rows_packed(rows, chunk, ad, s, &pb, bd, n);
    });
    out
}

/// `C = A @ Bᵀ` for `a: [M,K]`, `b: [N,K]` → `[M,N]`.
///
/// Used by backward passes (`dX = dY @ Wᵀ`) and the tied LM head without
/// materializing the transpose. Rows of both operands are contiguous, so
/// every output is one [`simd::dot`]. With one output row (per-token
/// decode) the parallelism axis switches to output columns; with more,
/// rows run in pairs through [`simd::dot_pair`], which gives each output
/// the bits of its own `dot`, so a row's bits never depend on the rows
/// beside it (the batch-invariance contract).
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_transb: lhs rank-2 required");
    assert_eq!(b.rank(), 2, "matmul_transb: rhs rank-2 required");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k, k2,
        "matmul_transb: inner dims differ, {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    if m == 1 {
        // Decode path: one output row of N dots — split the columns.
        struct SendPtr(*mut f32);
        // SAFETY(invariant: workers only offset the base into disjoint column ranges)
        // `SendPtr` wraps the base of `out`, which outlives the
        // `parallel_chunks` scope (see the `from_raw_parts_mut` below),
        // so sending the pointer across threads cannot create aliased
        // &mut access.
        unsafe impl Send for SendPtr {}
        // SAFETY(invariant: shared access only reads the address via `get`)
        // The disjoint-range argument above covers concurrent use.
        unsafe impl Sync for SendPtr {}
        impl SendPtr {
            fn get(&self) -> *mut f32 {
                self.0
            }
        }
        let base = SendPtr(out.as_mut_ptr());
        parallel_chunks(n, k, |s, e, _| {
            // SAFETY(disjoint: out[s .. e] — each worker gets a distinct column range)
            // `e <= n == out.len()`, so this reconstructed slice stays
            // inside the live `out` allocation and no two workers'
            // slices overlap; `out` is not touched by the launching
            // thread until `parallel_chunks` joins.
            let o = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
            for (j, nn) in (s..e).enumerate() {
                o[j] = simd::dot(ad, &bd[nn * k..nn * k + k]);
            }
        });
    } else {
        // B rows a block at a time (the block stays in L1 while every row
        // pair of the chunk passes over it), so for the batched LM head
        // each weight row streams through cache once for the whole batch.
        let block = (DOT_BLOCK_FLOATS / k.max(1)).max(simd::TILE_N) / simd::TILE_N * simd::TILE_N;
        // SAFETY(disjoint: out[rows] — workers receive non-overlapping row chunks of `out`)
        parallel_rows_mut(&mut out, m, n, k * n, |rows, chunk| {
            let a_rows = &ad[rows.start * k..rows.end * k];
            for j0 in (0..n).step_by(block) {
                let cols = j0..(j0 + block).min(n);
                dot_rows(a_rows, bd, k, rows.len(), |_| cols.clone(), chunk, n);
            }
        });
    }
    Tensor::from_parts(Shape(vec![m, n]), out)
}

/// `C = Aᵀ @ B` for `a: [K,M]`, `b: [K,N]` → `[M,N]`.
///
/// Used by backward passes (`dW = Xᵀ @ dY`). The packed GEMM driver reads
/// A straight from its `[K, M]` storage (`A(r, k)` at `a[k·M + r]`), so
/// each output has the chain it would have after an explicit transpose,
/// without one.
pub fn matmul_transa(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_transa: lhs rank-2 required");
    assert_eq!(b.rank(), 2, "matmul_transa: rhs rank-2 required");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k, k2,
        "matmul_transa: outer dims differ, {} vs {}",
        a.shape(),
        b.shape()
    );
    let out = matmul_raw(a.data(), Strides::transposed(m), b.data(), m, k, n);
    Tensor::from_parts(Shape(vec![m, n]), out)
}

/// `o[r·ldo + j] = simd::dot(a_r, b_j)` for rows `r < rows` and columns
/// `j ∈ cols(r)`, where `a_r` and `b_j` are the `k`-long rows of `a` and
/// `b`. Row pairs go through [`simd::dot_pair`] over the columns both
/// rows want; every other output is one `simd::dot` — the same bits
/// either way.
pub(super) fn dot_rows(a: &[f32], b: &[f32], k: usize, rows: usize, cols: impl Fn(usize) -> Range<usize>, o: &mut [f32], ldo: usize) {
    let dot = |r: usize, j: usize| simd::dot(&a[r * k..(r + 1) * k], &b[j * k..(j + 1) * k]);
    let mut r = 0;
    while r + 2 <= rows {
        let pair = [cols(r), cols(r + 1)];
        let shared = pair[0].start.max(pair[1].start)..pair[0].end.min(pair[1].end);
        if !shared.is_empty() {
            let (top, bottom) = o[r * ldo..].split_at_mut(ldo);
            let out = [&mut top[shared.clone()], &mut bottom[shared.clone()]];
            simd::dot_pair(&a[r * k..], k, &b[shared.start * k..], k, k, out);
        }
        for (i, c) in pair.into_iter().enumerate() {
            for j in c.filter(|j| !shared.contains(j)) {
                o[(r + i) * ldo + j] = dot(r + i, j);
            }
        }
        r += 2;
    }
    for r in r..rows {
        for j in cols(r) {
            o[r * ldo + j] = dot(r, j);
        }
    }
}

/// `o[r] = Σ_{kk ∈ ks(r)} A(r, kk) · b[kk]` for rows `r < rows`, where
/// `A(r, kk)` is `a[s.at(r, kk)]`, `b[kk]` is the `n`-wide row `kk` of
/// `b`, and `o` starts zeroed. Every output is one FMA chain over `kk`
/// ascending (a multiply and an add in the lanes past the last 8-lane
/// chunk), so these are [`simd::axpy`]'s bits: with AVX2+FMA and
/// `n % NR == 0` the rows run as `MR × NR` microkernel tiles over the
/// raw `b` rows — each row's leading and trailing terms that the other
/// rows of its tile do not share one row at a time — otherwise as one
/// `axpy` per term.
pub(super) fn fma_rows(a: &[f32], s: Strides, b: &[f32], n: usize, rows: usize, ks: impl Fn(usize) -> Range<usize>, o: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if n % NR == 0 && simd::use_avx2_fma() {
        // Rows `r..r + h` over `k`, output columns `j0..j0 + NR`.
        let tile = |r: usize, h: usize, k: Range<usize>, j0: usize, o: &mut [f32]| {
            if !k.is_empty() {
                let (a, b, o) = (&a[s.at(r, k.start)..], &b[k.start * n + j0..], &mut o[r * n + j0..]);
                // SAFETY(invariant: `use_avx2_fma()` just returned true)
                // `fma_tile`'s one precondition beyond the bounds it asserts.
                unsafe { fma_tile(a, s, b, n, o, h, k.len()) };
            }
        };
        for j0 in (0..n).step_by(NR) {
            let mut r = 0;
            while r + MR <= rows {
                let own: [Range<usize>; MR] = std::array::from_fn(|i| ks(r + i));
                let shared = own.iter().map(|k| k.start).max().unwrap_or(0)..own.iter().map(|k| k.end).min().unwrap_or(0);
                if shared.is_empty() {
                    for (i, k) in own.into_iter().enumerate() {
                        tile(r + i, 1, k, j0, o);
                    }
                } else {
                    for (i, k) in own.iter().enumerate() {
                        tile(r + i, 1, k.start..shared.start, j0, o);
                    }
                    tile(r, MR, shared.clone(), j0, o);
                    for (i, k) in own.iter().enumerate() {
                        tile(r + i, 1, shared.end..k.end, j0, o);
                    }
                }
                r += MR;
            }
            for r in r..rows {
                tile(r, 1, ks(r), j0, o);
            }
        }
        return;
    }
    for r in 0..rows {
        let o_row = &mut o[r * n..(r + 1) * n];
        for kk in ks(r) {
            simd::axpy(a[s.at(r, kk)], &b[kk * n..(kk + 1) * n], o_row);
        }
    }
}

/// Adds `Σ_{kk < kc} A(i, kk) · b[kk·n .. kk·n + NR]` into `o[i·n ..][..NR]`
/// for `i < rows`, `rows` ∈ {1, MR}: the packed path's microkernels over
/// raw `b` rows (row stride `n`, which is also the output's).
// SAFETY(invariant: caller-verified AVX2+FMA — every access is bounded by the asserts below)
// The asserts put the last A read `s.at(rows - 1, kc - 1)`, the last B
// read `(kc - 1) * n + NR` and the last output write `(rows - 1) * n + NR`
// inside their slices; the microkernels touch nothing past those.
#[cfg(target_arch = "x86_64")]
unsafe fn fma_tile(a: &[f32], s: Strides, b: &[f32], n: usize, o: &mut [f32], rows: usize, kc: usize) {
    assert!((rows == 1 || rows == MR) && kc > 0, "fma_tile: a tile is 1 or MR rows of at least one term");
    assert!(s.at(rows - 1, kc - 1) < a.len(), "fma_tile: A read out of bounds");
    assert!((kc - 1) * n + NR <= b.len(), "fma_tile: B read out of bounds");
    assert!((rows - 1) * n + NR <= o.len(), "fma_tile: output write out of bounds");
    if rows == MR {
        mk_avx_4x16(a.as_ptr(), s, b.as_ptr(), n, kc, o.as_mut_ptr(), n);
    } else {
        mk_avx_1x16(a.as_ptr(), s.k, b.as_ptr(), n, kc, o.as_mut_ptr());
    }
}

/// Batched matmul: `a: [B,M,K] @ b: [B,K,N]` → `[B,M,N]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_impl(a, b, Bmm::Plain, false)
}

/// Batched `a @ bᵀ`: `a: [B,M,K] @ b: [B,N,K]` → `[B,M,N]`.
pub fn bmm_transb(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_impl(a, b, Bmm::TransB, false)
}

/// Batched `aᵀ @ b`: `a: [B,K,M] @ b: [B,K,N]` → `[B,M,N]`.
pub fn bmm_transa(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_impl(a, b, Bmm::TransA, false)
}

/// [`bmm`] for a lower-triangular `a: [B,T,T]` (attention probabilities,
/// or the scores' gradient): row `i` reads only `a[i, ..=i]` — the
/// context `P @ V` and `dQ = dS @ K` of the tests' reference chain.
#[cfg(test)]
pub(crate) fn bmm_causal(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_impl(a, b, Bmm::Plain, true)
}

/// [`bmm_transb`] computed on and below the diagonal only: `a: [B,T,K] @
/// b: [B,T,K]ᵀ` → `[B,T,T]` with `+0` above it — the scores `Q @ Kᵀ` and
/// `dP = dC @ Vᵀ`, which the causal softmax never reads above it.
#[cfg(test)]
pub(crate) fn bmm_transb_causal(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_impl(a, b, Bmm::TransB, true)
}

/// [`bmm_transa`] for a lower-triangular `a: [B,T,T]`: output row `j`
/// reads only `a[j.., j]` — `dV = Pᵀ @ dC` and `dK = dSᵀ @ Q`.
#[cfg(test)]
pub(crate) fn bmm_transa_causal(a: &Tensor, b: &Tensor) -> Tensor {
    bmm_impl(a, b, Bmm::TransA, true)
}

/// Which operand of a batched product is read transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bmm {
    Plain,
    TransA,
    TransB,
}

fn bmm_impl(a: &Tensor, b: &Tensor, kind: Bmm, causal: bool) -> Tensor {
    assert_eq!(a.rank(), 3, "bmm: lhs must be rank-3, got {}", a.shape());
    assert_eq!(b.rank(), 3, "bmm: rhs must be rank-3, got {}", b.shape());
    assert_eq!(
        a.dims()[0],
        b.dims()[0],
        "bmm: batch dims differ, {} vs {}",
        a.shape(),
        b.shape()
    );
    let batch = a.dims()[0];
    let (m, ka) = match kind {
        Bmm::TransA => (a.dims()[2], a.dims()[1]),
        _ => (a.dims()[1], a.dims()[2]),
    };
    let (kb, n) = match kind {
        Bmm::TransB => (b.dims()[2], b.dims()[1]),
        _ => (b.dims()[1], b.dims()[2]),
    };
    assert_eq!(ka, kb, "bmm: inner dims differ, {} vs {} ({kind:?})", a.shape(), b.shape());
    let k = ka;
    // The triangle lies in the square attention matrix: the output for
    // `TransB`, the left operand otherwise.
    let t = if kind == Bmm::TransB { n } else { k };
    assert!(!causal || m == t, "bmm: a causal product needs square [T, T] matrices, got {} and {}", a.shape(), b.shape());
    let (ad, bd) = (a.data(), b.data());
    let a_stride = a.dims()[1] * a.dims()[2];
    let b_stride = b.dims()[1] * b.dims()[2];
    let s = if kind == Bmm::TransA { Strides::transposed(m) } else { Strides::rows(k) };
    let mut out = vec![0.0f32; batch * m * n];
    // The fused (batch, m) row space is cut across the pool; a causal row
    // does half a dense row's work on average.
    let row_macs = if causal { k * n / 2 } else { k * n };
    // SAFETY(disjoint: out[rows] — workers tile the fused (batch, m) row space)
    parallel_rows_mut(&mut out, batch * m, n, row_macs, |rows, chunk| {
        // One matrix's run of rows at a time.
        let mut row = rows.start;
        while row < rows.end {
            let (bi, r0) = (row / m, row % m);
            let len = (m - r0).min(rows.end - row);
            let a_mat = &ad[bi * a_stride..(bi + 1) * a_stride];
            let b_mat = &bd[bi * b_stride..(bi + 1) * b_stride];
            let local = row - rows.start;
            let o = &mut chunk[local * n..(local + len) * n];
            let a_run = &a_mat[s.at(r0, 0)..];
            match (kind, causal) {
                (Bmm::TransB, _) => {
                    let cols = |r: usize| 0..if causal { r0 + r + 1 } else { n };
                    dot_rows(a_run, b_mat, k, len, cols, o, n);
                }
                (_, false) => fma_rows(a_run, s, b_mat, n, len, |_| 0..k, o),
                (Bmm::Plain, true) => fma_rows(a_run, s, b_mat, n, len, |r| 0..r0 + r + 1, o),
                (Bmm::TransA, true) => fma_rows(a_run, s, b_mat, n, len, |r| r0 + r..k, o),
            }
            row += len;
        }
    });
    Tensor::from_parts(Shape(vec![batch, m, n]), out)
}

/// Tile-wise transpose of a row-major `[rows, cols]` buffer into `out`
/// (`[cols, rows]`). Both tiles stay cache-resident, so large transposes
/// stop thrashing: the naive element loop walks one operand with a
/// `rows`-element stride across the whole matrix.
fn transpose_into(out: &mut [f32], d: &[f32], rows: usize, cols: usize) {
    debug_assert_eq!(out.len(), rows * cols);
    debug_assert_eq!(d.len(), rows * cols);
    for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let i_end = (i0 + TRANSPOSE_TILE).min(rows);
        for j0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let j_end = (j0 + TRANSPOSE_TILE).min(cols);
            for i in i0..i_end {
                for j in j0..j_end {
                    out[j * rows + i] = d[i * cols + j];
                }
            }
        }
    }
}

/// Transpose a rank-2 tensor (tile-blocked copy).
pub fn transpose2d(t: &Tensor) -> Tensor {
    assert_eq!(t.rank(), 2, "transpose2d requires rank-2");
    let (m, n) = (t.dims()[0], t.dims()[1]);
    let mut out = vec![0.0f32; m * n];
    transpose_into(&mut out, t.data(), m, n);
    Tensor::from_parts(Shape(vec![n, m]), out)
}

/// Permute axes of an arbitrary-rank tensor (a full copy).
///
/// `axes` must be a permutation of `0..rank`. Output rows (its last
/// axis) are cut across the pool; within a range the source offset is
/// carried incrementally through a mixed-radix counter over the outer
/// output dims (O(1) amortized per row instead of O(rank)), and rows that
/// read the input contiguously are block-copied.
pub fn permute(t: &Tensor, axes: &[usize]) -> Tensor {
    let rank = t.rank();
    assert_eq!(axes.len(), rank, "permute: axes len != rank");
    let mut seen = vec![false; rank];
    for &a in axes {
        assert!(a < rank && !seen[a], "permute: invalid axes {axes:?}");
        seen[a] = true;
    }
    let in_dims = t.dims();
    let out_dims: Vec<usize> = axes.iter().map(|&a| in_dims[a]).collect();
    let in_strides = t.shape().strides();
    // Stride in the *input* for a unit step along each *output* dim.
    let step: Vec<usize> = axes.iter().map(|&a| in_strides[a]).collect();
    if t.numel() == 0 {
        return Tensor::from_parts(Shape(out_dims), Vec::new());
    }
    let (rows, w) = last_axis_rows(&out_dims);
    let outer = rank.saturating_sub(1);
    let inner_step = step.get(outer).copied().unwrap_or(1);
    let d = t.data();
    let out = fill_rows(rows, w, w * COPY_MACS, |r, out| {
        // The first row's multi-index over the outer output dims, and its
        // source offset.
        let mut idx = vec![0usize; outer];
        let (mut rem, mut src) = (r.start, 0usize);
        for dim in (0..outer).rev() {
            idx[dim] = rem % out_dims[dim];
            rem /= out_dims[dim];
            src += idx[dim] * step[dim];
        }
        for o in out.chunks_exact_mut(w) {
            if inner_step == 1 {
                o.copy_from_slice(&d[src..src + w]);
            } else {
                for (j, v) in o.iter_mut().enumerate() {
                    *v = d[src + j * inner_step];
                }
            }
            for dim in (0..outer).rev() {
                idx[dim] += 1;
                if idx[dim] < out_dims[dim] {
                    src += step[dim];
                    break;
                }
                idx[dim] = 0;
                src -= (out_dims[dim] - 1) * step[dim];
            }
        }
    });
    Tensor::from_parts(Shape(out_dims), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    #[test]
    fn matmul_reference() {
        // [[1,2],[3,4]] @ [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect() {
        let a = t2(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 3, 2); // 3x2
        let b = t2(&[2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 2, 4); // 2x4
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[3, 4]);
        assert_eq!(&c.data()[..4], &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&c.data()[4..8], &[6.0, 7.0, 8.0, 9.0]);
        assert_eq!(&c.data()[8..], &[8.0, 10.0, 12.0, 14.0]);
    }

    /// The packed/blocked path must agree with a naive triple loop on
    /// shapes that exercise every edge: m % MR, n % NR, k % KC, k % 4.
    #[test]
    fn packed_kernel_matches_naive_on_edge_shapes() {
        for &(m, k, n) in &[
            (9usize, 7usize, 17usize),
            (8, 4, 16),
            (13, 300, 33),
            (16, 5, 16),
            (33, 16, 40),
            (1, 64, 100),
            (3, 31, 7),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 31 + 7) % 23) as f32 * 0.25 - 2.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 17 + 3) % 19) as f32 * 0.5 - 4.0).collect();
            let mut naive = vec![0.0f32; m * n];
            for mm in 0..m {
                for kk in 0..k {
                    for nn in 0..n {
                        naive[mm * n + nn] += a[mm * k + kk] * b[kk * n + nn];
                    }
                }
            }
            let at = Tensor::from_vec(a, &[m, k]).unwrap();
            let bt = Tensor::from_vec(b, &[k, n]).unwrap();
            let c = matmul(&at, &bt);
            let nt = Tensor::from_vec(naive, &[m, n]).unwrap();
            assert!(
                c.allclose(&nt, 1e-3),
                "mismatch at shape ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(
            &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0],
            4,
            3,
        ); // treated as Bᵀ: 3x4
        let expect = matmul(&a, &transpose2d(&b));
        assert!(matmul_transb(&a, &b).allclose(&expect, 1e-5));
    }

    #[test]
    fn transb_single_row_matches_multi_row_path() {
        // m == 1 (column-parallel decode path) must agree with the same
        // row computed through the m > 1 path.
        let k = 37;
        let n = 300;
        let a1: Vec<f32> = (0..k).map(|i| (i as f32) * 0.1 - 1.5).collect();
        let b: Vec<f32> = (0..n * k).map(|i| ((i * 13) % 29) as f32 * 0.2 - 2.0).collect();
        let mut a2 = a1.clone();
        a2.extend(a1.iter().map(|v| v * 2.0));
        let one = matmul_transb(
            &Tensor::from_vec(a1, &[1, k]).unwrap(),
            &Tensor::from_vec(b.clone(), &[n, k]).unwrap(),
        );
        let two = matmul_transb(
            &Tensor::from_vec(a2, &[2, k]).unwrap(),
            &Tensor::from_vec(b, &[n, k]).unwrap(),
        );
        for j in 0..n {
            assert_eq!(one.data()[j].to_bits(), two.data()[j].to_bits());
        }
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2); // Aᵀ: 2x3
        let b = t2(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], 3, 2);
        let expect = matmul(&transpose2d(&a), &b);
        assert!(matmul_transa(&a, &b).allclose(&expect, 1e-5));
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 2, 3]).unwrap();
        let b = Tensor::from_vec((0..24).map(|i| (i as f32) * 0.5).collect(), &[2, 3, 4]).unwrap();
        let c = bmm(&a, &b);
        assert_eq!(c.dims(), &[2, 2, 4]);
        for bi in 0..2 {
            let am = Tensor::from_vec(a.data()[bi * 6..(bi + 1) * 6].to_vec(), &[2, 3]).unwrap();
            let bm = Tensor::from_vec(b.data()[bi * 12..(bi + 1) * 12].to_vec(), &[3, 4]).unwrap();
            let cm = matmul(&am, &bm);
            assert!(Tensor::from_vec(c.data()[bi * 8..(bi + 1) * 8].to_vec(), &[2, 4])
                .unwrap()
                .allclose(&cm, 1e-5));
        }
    }

    #[test]
    fn bmm_transb_matches() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32 * 0.1).collect(), &[2, 2, 3]).unwrap();
        let b = Tensor::from_vec((0..24).map(|i| i as f32 * 0.2).collect(), &[2, 4, 3]).unwrap();
        let c = bmm_transb(&a, &b);
        assert_eq!(c.dims(), &[2, 2, 4]);
        for bi in 0..2 {
            let am = Tensor::from_vec(a.data()[bi * 6..(bi + 1) * 6].to_vec(), &[2, 3]).unwrap();
            let bm = Tensor::from_vec(b.data()[bi * 12..(bi + 1) * 12].to_vec(), &[4, 3]).unwrap();
            let cm = matmul(&am, &transpose2d(&bm));
            assert!(Tensor::from_vec(c.data()[bi * 8..(bi + 1) * 8].to_vec(), &[2, 4])
                .unwrap()
                .allclose(&cm, 1e-6));
        }
    }

    #[test]
    fn bmm_transa_matches() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32 * 0.3).collect(), &[2, 3, 2]).unwrap();
        let b = Tensor::from_vec((0..24).map(|i| i as f32 * 0.1).collect(), &[2, 3, 4]).unwrap();
        let c = bmm_transa(&a, &b);
        assert_eq!(c.dims(), &[2, 2, 4]);
        for bi in 0..2 {
            let am = Tensor::from_vec(a.data()[bi * 6..(bi + 1) * 6].to_vec(), &[3, 2]).unwrap();
            let bm = Tensor::from_vec(b.data()[bi * 12..(bi + 1) * 12].to_vec(), &[3, 4]).unwrap();
            let cm = matmul(&transpose2d(&am), &bm);
            assert!(Tensor::from_vec(c.data()[bi * 8..(bi + 1) * 8].to_vec(), &[2, 4])
                .unwrap()
                .allclose(&cm, 1e-6));
        }
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_bad_inner_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn transpose_blocked_matches_naive() {
        // shapes around the tile edge
        for &(m, n) in &[(1usize, 1usize), (31, 33), (32, 32), (65, 7), (7, 65)] {
            let t = Tensor::from_vec((0..m * n).map(|i| i as f32).collect(), &[m, n]).unwrap();
            let tt = transpose2d(&t);
            assert_eq!(tt.dims(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(tt.at(&[j, i]), t.at(&[i, j]));
                }
            }
        }
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let p = permute(&t, &[1, 0, 2]);
        assert_eq!(p.dims(), &[3, 2, 4]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(p.at(&[j, i, k]), t.at(&[i, j, k]));
                }
            }
        }
    }

    #[test]
    fn permute_roundtrip_identity() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let p = permute(&permute(&t, &[2, 0, 1]), &[1, 2, 0]);
        assert_eq!(p, t);
    }

    #[test]
    fn permute_strided_inner_axis() {
        // output inner dim maps to input dim 0 (stride != 1): exercises
        // the incremental-offset path rather than the run-copy path
        let t = Tensor::from_vec((0..30).map(|i| i as f32).collect(), &[5, 3, 2]).unwrap();
        let p = permute(&t, &[2, 1, 0]);
        assert_eq!(p.dims(), &[2, 3, 5]);
        for i in 0..5 {
            for j in 0..3 {
                for k in 0..2 {
                    assert_eq!(p.at(&[k, j, i]), t.at(&[i, j, k]));
                }
            }
        }
    }
}
