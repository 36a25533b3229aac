//! Vectorized scalar-free inner loops shared by the matmul kernels and the
//! incremental decode path.
//!
//! The workspace builds for baseline `x86-64` (SSE2) so it runs anywhere,
//! but the training/decoding hot loops are worth specializing: when the
//! host CPU reports AVX2+FMA at runtime we dispatch to 8-lane fused
//! multiply-add kernels, otherwise to portable loops the auto-vectorizer
//! handles. Selection happens **once per process** and never depends on
//! thread count or data values, so results are deterministic on a given
//! machine (FMA contracts differently from mul+add, so bits may differ
//! *across* machines — golden tests only ever compare run-vs-run).
//!
//! Every kernel here accumulates in a fixed k-ascending order per output
//! element, which is what lets the blocked, multithreaded matmuls promise
//! byte-identical results for any `set_num_threads` value.

use crate::dtype::{Element, F16};

/// True when the 8-lane FMA kernels are usable on this host.
#[inline]
pub(crate) fn use_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the integer AVX2 kernels (`maddubs`-based int8 dot) are
/// usable on this host. Integer SIMD needs no FMA, so this probe is
/// AVX2-only; the choice never affects results — integer accumulation is
/// exact, so the AVX2 and portable paths are bit-identical.
#[inline]
pub(crate) fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the hardware f16↔f32 conversion kernels are usable. The F16C
/// widen (`vcvtph2ps`) is exact and the scalar fallback widens exactly
/// too, so dispatch never changes results.
#[inline]
pub(crate) fn use_f16c() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("f16c")
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dot product with a fixed reduction tree (independent of call site).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2_fma() {
        // SAFETY(invariant: `use_avx2_fma()` returned true and lengths were asserted equal)
        // The one-time cpuid probe confirmed AVX2+FMA on this host —
        // `dot_avx`'s `#[target_feature]` contract holds; the length
        // equality is the only bound `dot_avx` relies on.
        return unsafe { dot_avx(a, b) };
    }
    dot_portable(a, b)
}

fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    // Four independent accumulator chains so the auto-vectorizer can keep
    // lanes busy; the combine order is fixed.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let (x, y) = (&a[i * 4..i * 4 + 4], &b[i * 4..i * 4 + 4]);
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified AVX2+FMA)
// All loads use `loadu` (no alignment requirement) and every
// `ap/bp.add(i)` stays in bounds: `i + 16 <= n`, `i + 8 <= n` and
// `i < n` guard each loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(ap.add(i + 8)),
            _mm256_loadu_ps(bp.add(i + 8)),
            acc1,
        );
        i += 16;
    }
    while i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        i += 8;
    }
    let mut total = dot_tree(acc0, acc1);
    while i < n {
        total += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    total
}

/// The horizontal half of [`dot_avx`], shared by every kernel that
/// replays it: `acc0 + acc1`, low + high 128-bit half, then lanes
/// `(0 + 2) + (1 + 3)`.
// SAFETY(invariant: unsafe solely for `#[target_feature]` — register-only, called from AVX frames)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_tree(acc0: std::arch::x86_64::__m256, acc1: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let s = halves_sum(_mm256_add_ps(acc0, acc1));
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 1)))
}

/// Right rows per register tile of [`dot_pair`].
pub(crate) const TILE_N: usize = 3;

/// `out[r][c] = dot(a_r, b_c)` for the two left rows `a_r = a[r·lda ..][..k]`
/// against the `out[0].len()` right rows `b_c = b[c·ldb ..][..k]`, each
/// output bit-identical to that [`dot`] call. With AVX2+FMA the right
/// rows go `TILE_N` at a time through a register tile that replays
/// `dot_avx` per output (the two 8-lane FMA chains, a trailing 8-chunk
/// into chain 0, [`dot_tree`], the scalar tail) with all six chains in
/// flight, so each left chunk is loaded once per three right rows and each
/// right chunk once per two left rows; the last `len % TILE_N` are
/// `dot_avx` calls. Otherwise every output is one portable dot.
pub(crate) fn dot_pair(a: &[f32], lda: usize, b: &[f32], ldb: usize, k: usize, out: [&mut [f32]; 2]) {
    let n = out[0].len();
    assert_eq!(out[1].len(), n, "dot_pair: output rows differ in length");
    assert!(a.len() >= lda + k, "dot_pair: left rows out of bounds");
    assert!(n == 0 || b.len() >= (n - 1) * ldb + k, "dot_pair: right rows out of bounds");
    #[cfg(target_arch = "x86_64")]
    if use_avx2_fma() {
        // SAFETY(invariant: `use_avx2_fma()` returned true and both extents were asserted)
        // Meets `dot_pair_avx`'s `#[target_feature]` contract; it reads
        // `k` floats from each row at `r·lda` / `c·ldb`, `c < n`, all
        // inside the asserted lengths.
        unsafe { dot_pair_avx(a, lda, b, ldb, k, out) };
        return;
    }
    for (r, o) in out.into_iter().enumerate() {
        for (c, v) in o.iter_mut().enumerate() {
            *v = dot_portable(&a[r * lda..r * lda + k], &b[c * ldb..c * ldb + k]);
        }
    }
}

// SAFETY(invariant: unsafe for `#[target_feature]` and raw row pointers — caller-verified AVX2+FMA and extents)
// The caller checked the CPU features, that `a` holds two rows and `b`
// `out[0].len()` rows of `k` readable floats at strides `lda`/`ldb`, and
// that both output rows have that length. Every offset formed is
// `r·lda + i` / `c·ldb + i` with `i < k` (`i + 16 <= k`, `i + 8 <= k` and
// `i < k` guard the loops). Unaligned loads only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_pair_avx(a: &[f32], lda: usize, b: &[f32], ldb: usize, k: usize, mut out: [&mut [f32]; 2]) {
    use std::arch::x86_64::*;
    let n = out[0].len();
    let rows = [a.as_ptr(), a.as_ptr().add(lda)];
    let mut c = 0usize;
    while c + TILE_N <= n {
        let col = |j: usize| b.as_ptr().add((c + j) * ldb);
        let cols = [col(0), col(1), col(2)];
        // `acc[h][r][j]`: chain `h` of output `(r, c + j)`.
        let mut acc = [[[_mm256_setzero_ps(); TILE_N]; 2]; 2];
        let mut i = 0usize;
        while i + 16 <= k {
            fma_chunk(&mut acc[0], rows, cols, i);
            fma_chunk(&mut acc[1], rows, cols, i + 8);
            i += 16;
        }
        if i + 8 <= k {
            fma_chunk(&mut acc[0], rows, cols, i);
            i += 8;
        }
        for (r, row) in rows.iter().enumerate() {
            for (j, cp) in cols.iter().enumerate() {
                let mut total = dot_tree(acc[0][r][j], acc[1][r][j]);
                for t in i..k {
                    total += *row.add(t) * *cp.add(t);
                }
                out[r][c + j] = total;
            }
        }
        c += TILE_N;
    }
    for c in c..n {
        for (r, o) in out.iter_mut().enumerate() {
            o[c] = dot_avx(&a[r * lda..r * lda + k], &b[c * ldb..c * ldb + k]);
        }
    }
}

/// The 8-lane chunk at offset `i` of every left and right row of a
/// [`dot_pair_avx`] tile, fused into one chain (`acc`) of each output.
// SAFETY(invariant: unsafe for `#[target_feature]` and raw row pointers — `dot_pair_avx`'s caller-verified extents)
// Reads 8 floats at `i` from each row pointer; `dot_pair_avx` only
// passes `i + 8 <= k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn fma_chunk(
    acc: &mut [[std::arch::x86_64::__m256; TILE_N]; 2],
    rows: [*const f32; 2],
    cols: [*const f32; TILE_N],
    i: usize,
) {
    use std::arch::x86_64::*;
    let x = [_mm256_loadu_ps(rows[0].add(i)), _mm256_loadu_ps(rows[1].add(i))];
    for (c, col) in cols.iter().enumerate() {
        let y = _mm256_loadu_ps(col.add(i));
        for (r, xr) in x.iter().enumerate() {
            acc[r][c] = _mm256_fmadd_ps(*xr, y, acc[r][c]);
        }
    }
}

/// `y[j] += alpha * x[j]` — the attention context update.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2_fma() {
        // SAFETY(invariant: cpuid probe confirmed AVX2+FMA and lengths were asserted)
        // Satisfies `axpy_avx`'s `#[target_feature]` contract; the length
        // equality it indexes by was just asserted.
        unsafe { axpy_avx(alpha, x, y) };
        return;
    }
    for (o, &v) in y.iter_mut().zip(x.iter()) {
        *o += alpha * v;
    }
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified AVX2+FMA)
// Unaligned loads/stores via `loadu`/`storeu`; `xp/yp.add(j)` bounded by
// `j + 8 <= n` / `j < n` with `x.len() == y.len() == n` asserted by the
// caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx(alpha: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let av = _mm256_set1_ps(alpha);
    let mut j = 0usize;
    while j + 8 <= n {
        let acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(yp.add(j)));
        _mm256_storeu_ps(yp.add(j), acc);
        j += 8;
    }
    while j < n {
        *yp.add(j) += alpha * *xp.add(j);
        j += 1;
    }
}

/// Dot product of an `f32` query against an [`F16`]-stored row, widening
/// each half on the fly. Fixed k-ascending accumulation order; the F16C
/// fast path and the scalar fallback widen identically (the conversion is
/// exact), so both produce the same reduction inputs.
#[inline]
pub fn dot_f16(a: &[f32], b: &[F16]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_f16c() {
        // SAFETY(invariant: `use_f16c()` returned true and lengths were asserted equal)
        // The one-time cpuid probe confirmed F16C+AVX2+FMA on this host —
        // `dot_f16_avx`'s `#[target_feature]` contract holds.
        return unsafe { dot_f16_avx(a, b) };
    }
    dot_f16_portable(a, b)
}

fn dot_f16_portable(a: &[f32], b: &[F16]) -> f32 {
    // Mirrors `dot_portable`: four accumulator chains, fixed combine order.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let (x, y) = (&a[i * 4..i * 4 + 4], &b[i * 4..i * 4 + 4]);
        acc[0] += x[0] * y[0].to_f32();
        acc[1] += x[1] * y[1].to_f32();
        acc[2] += x[2] * y[2].to_f32();
        acc[3] += x[3] * y[3].to_f32();
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i].to_f32();
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified F16C+AVX2+FMA)
// `F16` is `#[repr(transparent)]` over `u16`, so `bp` casts to
// `*const __m128i` loads of 8 halfs are layout-valid; all loads are
// unaligned (`loadu`) and `ap/bp.add(i)` stays in bounds: `i + 8 <= n`
// and `i < n` guard each loop, with `a.len() == b.len() == n` asserted
// by the caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn dot_f16_avx(a: &[f32], b: &[F16]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr() as *const u16);
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let h0 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i) as *const __m128i));
        let h1 = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i + 8) as *const __m128i));
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), h0, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 8)), h1, acc1);
        i += 16;
    }
    while i + 8 <= n {
        let h = _mm256_cvtph_ps(_mm_loadu_si128(bp.add(i) as *const __m128i));
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), h, acc0);
        i += 8;
    }
    let acc = _mm256_add_ps(acc0, acc1);
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    let mut total = _mm_cvtss_f32(s);
    while i < n {
        total += *ap.add(i) * f16_to_f32_scalar(*bp.add(i));
        i += 1;
    }
    total
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn f16_to_f32_scalar(bits: u16) -> f32 {
    F16::from_bits(bits).to_f32()
}

/// `y[j] += alpha * x[j]` where `x` is stored as [`F16`] — the attention
/// context update against an f16 value row.
#[inline]
pub fn axpy_f16(alpha: f32, x: &[F16], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy_f16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_f16c() {
        // SAFETY(invariant: cpuid probe confirmed F16C+AVX2+FMA and lengths were asserted)
        // Satisfies `axpy_f16_avx`'s `#[target_feature]` contract; the
        // length equality it indexes by was just asserted.
        unsafe { axpy_f16_avx(alpha, x, y) };
        return;
    }
    for (o, &v) in y.iter_mut().zip(x.iter()) {
        *o += alpha * v.to_f32();
    }
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified F16C+AVX2+FMA)
// `F16` is `#[repr(transparent)]` over `u16` so the `__m128i` loads of 8
// halfs are layout-valid; unaligned loads/stores via `loadu`/`storeu`;
// `xp/yp.add(j)` bounded by `j + 8 <= n` / `j < n` with
// `x.len() == y.len() == n` asserted by the caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn axpy_f16_avx(alpha: f32, x: &[F16], y: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = x.len();
    let (xp, yp) = (x.as_ptr() as *const u16, y.as_mut_ptr());
    let av = _mm256_set1_ps(alpha);
    let mut j = 0usize;
    while j + 8 <= n {
        let xv = _mm256_cvtph_ps(_mm_loadu_si128(xp.add(j) as *const __m128i));
        let acc = _mm256_fmadd_ps(av, xv, _mm256_loadu_ps(yp.add(j)));
        _mm256_storeu_ps(yp.add(j), acc);
        j += 8;
    }
    while j < n {
        *yp.add(j) += alpha * f16_to_f32_scalar(*xp.add(j));
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// Run-fused attention kernels
// ---------------------------------------------------------------------------

/// Where one storage-contiguous run of cached rows lands in the per-head
/// `[heads, stride]` score/probability buffers of the attention kernel:
/// row `j` of the run is window-relative position `rel + j` (`rel` is
/// already net of the GPT-Neo window start).
#[derive(Debug, Clone, Copy)]
pub struct RunSpan {
    /// Attention heads; every row is `heads * dh` elements wide.
    pub heads: usize,
    /// Positions per head in the score/probability buffers (the window).
    pub stride: usize,
    /// Window-relative position of the run's first row.
    pub rel: usize,
}

impl RunSpan {
    /// Rows in a run of `run_len` elements at row width `d`, after
    /// checking everything the raw-pointer kernels index by: whole rows
    /// of whole heads, and `rel + rows` inside a `[heads, stride]` buffer
    /// of `buf_len` floats.
    fn checked_rows(&self, d: usize, run_len: usize, buf_len: usize) -> usize {
        assert!(self.heads > 0 && d % self.heads == 0, "row width {d} is not {} heads", self.heads);
        assert!(d > 0 && run_len % d == 0, "run of {run_len} is not whole rows of {d}");
        let rows = run_len / d;
        assert!(self.rel + rows <= self.stride, "run overruns the attention window");
        assert!(self.heads * self.stride <= buf_len, "score buffer shorter than heads * window");
        rows
    }

    /// The span of the same run from its row `first` on.
    fn from_row(self, first: usize) -> RunSpan {
        RunSpan {
            rel: self.rel + first,
            ..self
        }
    }
}

/// The per-head reference loop behind [`Element::score_run`]: one
/// [`Element::dot_with_f32`] per (row, head). What the SIMD frames hand
/// their last `rows % 4` rows (or every row, on hosts and head widths
/// they decline) to, and the tests' reference for them.
pub(crate) fn score_run_by_head<E: Element>(q: &[f32], run: &[E], span: RunSpan, scale: f32, scores: &mut [f32]) {
    let d = q.len();
    let dh = d / span.heads;
    span.checked_rows(d, run.len(), scores.len());
    for (j, row) in run.chunks_exact(d).enumerate() {
        for h in 0..span.heads {
            scores[h * span.stride + span.rel + j] =
                E::dot_with_f32(&q[h * dh..(h + 1) * dh], &row[h * dh..(h + 1) * dh]) * scale;
        }
    }
}

/// The per-head reference loop behind [`Element::accumulate_run`]: one
/// [`Element::axpy_into_f32`] per (row, head), rows ascending.
pub(crate) fn accumulate_run_by_head<E: Element>(probs: &[f32], run: &[E], span: RunSpan, ctx: &mut [f32]) {
    let d = ctx.len();
    let dh = d / span.heads;
    span.checked_rows(d, run.len(), probs.len());
    for (j, row) in run.chunks_exact(d).enumerate() {
        for h in 0..span.heads {
            E::axpy_into_f32(
                probs[h * span.stride + span.rel + j],
                &row[h * dh..(h + 1) * dh],
                &mut ctx[h * dh..(h + 1) * dh],
            );
        }
    }
}

/// The run kernels of one SIMD cache dtype: the safe entry points behind
/// [`Element::score_run`] / [`Element::accumulate_run`], and the
/// `#[target_feature]` frame each one runs whole four-row blocks in, so
/// nothing is called per (row, head). The last `rows % 4` rows — and
/// every row when the host lacks the features or a head is not a
/// multiple of 8 wide — go through the per-head reference loop.
///
/// **Numerics.** A frame replays `dot_avx` / `axpy_avx` (or their f16
/// twins) operation for operation. Per score: 8-lane chunk `c` of a head
/// feeds accumulator `c & 1` by FMA from zero, chunks ascending;
/// `acc0 + acc1`; low + high half; lanes `(0+2) + (1+3)`; `* scale`. Per
/// context element: one FMA `alpha * x + y` per cached row, rows
/// ascending. Blocking only changes which independent chains are in
/// flight together:
///
/// * scores take four rows at a time, so each query chunk is loaded once
///   per four rows and the four horizontal sums run as one 4×4 transpose
///   plus the same three adds, lane `r` holding row `r`'s tree;
/// * the context takes four rows at a time, so each 8-lane context chunk
///   sits in a register across four position-ascending FMAs instead of
///   round-tripping through memory per row.
macro_rules! attention_run_kernels {
    (
        $elem:ty, $probe:ident, $load8:ident, $(#[$features:meta])+
        $score:ident => $score_frame:ident, $accumulate:ident => $accumulate_frame:ident
    ) => {
        /// [`Element::score_run`] for this cache dtype.
        pub(crate) fn $score(q: &[f32], run: &[$elem], span: RunSpan, scale: f32, scores: &mut [f32]) {
            #[cfg(not(target_arch = "x86_64"))]
            let done = 0;
            #[cfg(target_arch = "x86_64")]
            let done = if $probe() && q.len() / span.heads.max(1) % 8 == 0 {
                let blocked = span.checked_rows(q.len(), run.len(), scores.len()) & !3;
                // SAFETY(invariant: the cpuid probe confirmed the frame's features and `checked_rows` every extent)
                // `blocked` whole rows of `q.len()` elements are readable
                // from `run`, heads are whole 8-lane chunks, and
                // `h * stride + rel + j` stays inside `scores` for every
                // head and row — the only addresses the frame forms.
                unsafe { $score_frame(q, run, span, blocked, scale, scores) };
                blocked
            } else {
                0
            };
            score_run_by_head(q, &run[done * q.len()..], span.from_row(done), scale, scores);
        }

        /// [`Element::accumulate_run`] for this cache dtype.
        pub(crate) fn $accumulate(probs: &[f32], run: &[$elem], span: RunSpan, ctx: &mut [f32]) {
            #[cfg(not(target_arch = "x86_64"))]
            let done = 0;
            #[cfg(target_arch = "x86_64")]
            let done = if $probe() && ctx.len() / span.heads.max(1) % 8 == 0 {
                let blocked = span.checked_rows(ctx.len(), run.len(), probs.len()) & !3;
                // SAFETY(invariant: the cpuid probe confirmed the frame's features and `checked_rows` every extent)
                // As in the score entry point, with `ctx` the row-wide
                // accumulator and `probs` the `[heads, stride]` buffer.
                unsafe { $accumulate_frame(probs, run, span, blocked, ctx) };
                blocked
            } else {
                0
            };
            accumulate_run_by_head(probs, &run[done * ctx.len()..], span.from_row(done), ctx);
        }

        #[cfg(target_arch = "x86_64")]
        $(#[$features])+
        // SAFETY(invariant: unsafe for `#[target_feature]` and raw row pointers — caller-verified features and extents)
        // The caller checked the CPU features and that `run` holds `rows`
        // (a multiple of 4) rows of `q.len()` elements, `dh % 8 == 0`, and
        // `scores` holds `heads * stride` floats with `rel + rows <=
        // stride`. Every offset formed is `row * d + h * dh + i` with
        // `i + 8 <= dh` into `q`/`run`, or `h * stride + rel + row .. + 4`
        // into `scores`.
        unsafe fn $score_frame(q: &[f32], run: &[$elem], span: RunSpan, rows: usize, scale: f32, scores: &mut [f32]) {
            use std::arch::x86_64::*;
            let d = q.len();
            let dh = d / span.heads;
            let (qp, kp, sp) = (q.as_ptr(), run.as_ptr(), scores.as_mut_ptr());
            let scale4 = _mm_set1_ps(scale);
            for j in (0..rows).step_by(4) {
                let (k0, k1, k2, k3) = (
                    kp.add(j * d),
                    kp.add((j + 1) * d),
                    kp.add((j + 2) * d),
                    kp.add((j + 3) * d),
                );
                for h in 0..span.heads {
                    let o = h * dh;
                    let zero = _mm256_setzero_ps();
                    let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
                    let (mut b0, mut b1, mut b2, mut b3) = (zero, zero, zero, zero);
                    let mut i = 0usize;
                    while i + 16 <= dh {
                        let qa = _mm256_loadu_ps(qp.add(o + i));
                        let qb = _mm256_loadu_ps(qp.add(o + i + 8));
                        a0 = _mm256_fmadd_ps(qa, $load8(k0.add(o + i)), a0);
                        b0 = _mm256_fmadd_ps(qb, $load8(k0.add(o + i + 8)), b0);
                        a1 = _mm256_fmadd_ps(qa, $load8(k1.add(o + i)), a1);
                        b1 = _mm256_fmadd_ps(qb, $load8(k1.add(o + i + 8)), b1);
                        a2 = _mm256_fmadd_ps(qa, $load8(k2.add(o + i)), a2);
                        b2 = _mm256_fmadd_ps(qb, $load8(k2.add(o + i + 8)), b2);
                        a3 = _mm256_fmadd_ps(qa, $load8(k3.add(o + i)), a3);
                        b3 = _mm256_fmadd_ps(qb, $load8(k3.add(o + i + 8)), b3);
                        i += 16;
                    }
                    if i < dh {
                        let qa = _mm256_loadu_ps(qp.add(o + i));
                        a0 = _mm256_fmadd_ps(qa, $load8(k0.add(o + i)), a0);
                        a1 = _mm256_fmadd_ps(qa, $load8(k1.add(o + i)), a1);
                        a2 = _mm256_fmadd_ps(qa, $load8(k2.add(o + i)), a2);
                        a3 = _mm256_fmadd_ps(qa, $load8(k3.add(o + i)), a3);
                    }
                    let (s0, s1, s2, s3) = (
                        halves_sum(_mm256_add_ps(a0, b0)),
                        halves_sum(_mm256_add_ps(a1, b1)),
                        halves_sum(_mm256_add_ps(a2, b2)),
                        halves_sum(_mm256_add_ps(a3, b3)),
                    );
                    // 4×4 transpose: `cN` holds lane N of every row's sum.
                    let (t0, t1) = (_mm_unpacklo_ps(s0, s1), _mm_unpacklo_ps(s2, s3));
                    let (t2, t3) = (_mm_unpackhi_ps(s0, s1), _mm_unpackhi_ps(s2, s3));
                    let (c0, c1) = (_mm_movelh_ps(t0, t1), _mm_movehl_ps(t1, t0));
                    let (c2, c3) = (_mm_movelh_ps(t2, t3), _mm_movehl_ps(t3, t2));
                    let totals = _mm_add_ps(_mm_add_ps(c0, c2), _mm_add_ps(c1, c3));
                    _mm_storeu_ps(sp.add(h * span.stride + span.rel + j), _mm_mul_ps(totals, scale4));
                }
            }
        }

        #[cfg(target_arch = "x86_64")]
        $(#[$features])+
        // SAFETY(invariant: unsafe for `#[target_feature]` and raw row pointers — caller-verified features and extents)
        // As for the score frame: `run` holds `rows` (a multiple of 4)
        // rows of `ctx.len()` elements, `dh % 8 == 0`, `probs` holds
        // `heads * stride` floats with `rel + rows <= stride`, and every
        // offset is `row * d + i` with `i + 8 <= d`.
        unsafe fn $accumulate_frame(probs: &[f32], run: &[$elem], span: RunSpan, rows: usize, ctx: &mut [f32]) {
            use std::arch::x86_64::*;
            let d = ctx.len();
            let dh = d / span.heads;
            let (pp, vp, cp) = (probs.as_ptr(), run.as_ptr(), ctx.as_mut_ptr());
            for j in (0..rows).step_by(4) {
                let (v0, v1, v2, v3) = (
                    vp.add(j * d),
                    vp.add((j + 1) * d),
                    vp.add((j + 2) * d),
                    vp.add((j + 3) * d),
                );
                for h in 0..span.heads {
                    let p = pp.add(h * span.stride + span.rel + j);
                    let (p0, p1, p2, p3) = (
                        _mm256_set1_ps(*p),
                        _mm256_set1_ps(*p.add(1)),
                        _mm256_set1_ps(*p.add(2)),
                        _mm256_set1_ps(*p.add(3)),
                    );
                    for i in (h * dh..(h + 1) * dh).step_by(8) {
                        let mut y = _mm256_loadu_ps(cp.add(i));
                        y = _mm256_fmadd_ps(p0, $load8(v0.add(i)), y);
                        y = _mm256_fmadd_ps(p1, $load8(v1.add(i)), y);
                        y = _mm256_fmadd_ps(p2, $load8(v2.add(i)), y);
                        y = _mm256_fmadd_ps(p3, $load8(v3.add(i)), y);
                        _mm256_storeu_ps(cp.add(i), y);
                    }
                }
            }
        }
    };
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — register-only, called from AVX frames)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn halves_sum(acc: std::arch::x86_64::__m256) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1))
}

// SAFETY(invariant: unsafe for `#[target_feature]` and one raw load — caller guarantees 8 readable floats)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load8_f32(p: *const f32) -> std::arch::x86_64::__m256 {
    std::arch::x86_64::_mm256_loadu_ps(p)
}

// SAFETY(invariant: unsafe for `#[target_feature]` and one raw load — caller guarantees 8 readable halfs)
// `F16` is `#[repr(transparent)]` over `u16`, so the unaligned 128-bit
// load of 8 halfs is layout-valid; the F16C widen is exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "f16c")]
#[inline]
unsafe fn load8_f16(p: *const F16) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i))
}

attention_run_kernels!(
    f32, use_avx2_fma, load8_f32,
    #[target_feature(enable = "avx2", enable = "fma")]
    score_run_f32 => score_run_f32_avx, accumulate_run_f32 => accumulate_run_f32_avx
);

attention_run_kernels!(
    F16, use_f16c, load8_f16,
    #[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
    score_run_f16 => score_run_f16_avx, accumulate_run_f16 => accumulate_run_f16_avx
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.25 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| 1.5 - (i as f32) * 0.125).collect();
        let naive: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn dot_is_reproducible() {
        let a: Vec<f32> = (0..100).map(|i| ((i * 37) % 11) as f32 * 0.3).collect();
        let b: Vec<f32> = (0..100).map(|i| ((i * 13) % 7) as f32 * 0.7).collect();
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn axpy_matches_naive() {
        let x: Vec<f32> = (0..23).map(|i| i as f32 * 0.5).collect();
        let mut y: Vec<f32> = (0..23).map(|i| 10.0 - i as f32).collect();
        let mut expect = y.clone();
        for (e, &v) in expect.iter_mut().zip(&x) {
            *e += 2.0 * v;
        }
        axpy(2.0, &x, &mut y);
        for (a, e) in y.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn dot_f16_matches_f32_dot_on_exact_halves() {
        // Values exactly representable in f16 (small integers / quarters),
        // so widening introduces no error and both dots agree tightly.
        let a: Vec<f32> = (0..41).map(|i| (i % 9) as f32 * 0.25 - 1.0).collect();
        let bf: Vec<f32> = (0..41).map(|i| (i % 7) as f32 * 0.5 - 1.5).collect();
        let bh: Vec<F16> = bf.iter().map(|&v| F16::from_f32(v)).collect();
        assert!((dot_f16(&a, &bh) - dot(&a, &bf)).abs() < 1e-4);
    }

    #[test]
    fn axpy_f16_matches_naive() {
        let xf: Vec<f32> = (0..23).map(|i| i as f32 * 0.5).collect();
        let xh: Vec<F16> = xf.iter().map(|&v| F16::from_f32(v)).collect();
        let mut y: Vec<f32> = (0..23).map(|i| 10.0 - i as f32).collect();
        let mut expect = y.clone();
        for (e, &v) in expect.iter_mut().zip(&xf) {
            *e += 2.0 * v;
        }
        axpy_f16(2.0, &xh, &mut y);
        for (a, e) in y.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-5);
        }
    }
}
