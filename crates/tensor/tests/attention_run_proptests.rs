//! Bit-identity of the run-fused attention kernels
//! ([`Element::score_run`] / [`Element::accumulate_run`]) against the
//! per-head [`Element::dot_with_f32`] / [`Element::axpy_into_f32`] loops
//! they replace, for every cache dtype: `f32` (AVX2+FMA frame), [`F16`]
//! (F16C frame) and the `i8` default.
//!
//! Shapes cover the four-row SIMD frames (`dh % 8 == 0`), the hand-over
//! of the last `rows % 4` rows to the reference loop, and a head width
//! the frames decline (`dh = 20`); the run is cut in two the way a block
//! pool cuts it, at a non-zero window offset, and whole buffers are
//! compared so a stray write shows too.

use ratatouille_tensor::ops::RunSpan;
use ratatouille_tensor::{Element, F16};
use ratatouille_util::proptest::prelude::*;

const HEADS: [usize; 4] = [1, 2, 4, 8];
const HEAD_DIMS: [usize; 5] = [8, 16, 20, 32, 64];

/// One attention layer's worth of inputs, shapes drawn first.
#[derive(Debug, Clone)]
struct Case {
    heads: usize,
    dh: usize,
    rows: usize,
    /// Rows in the first of the two runs.
    cut: usize,
    /// Window-relative position of the first row (the GPT-Neo offset).
    rel: usize,
    /// Window positions past the last row (buffers are wider than the run).
    slack: usize,
    q: Vec<f32>,
    cache: Vec<f32>,
    probs: Vec<f32>,
    ctx: Vec<f32>,
}

fn cases() -> impl Strategy<Value = Case> {
    (0usize..4, 0usize..5, 1usize..23, 0usize..6, 0usize..3).prop_flat_map(|(hi, di, rows, rel, slack)| {
        let (heads, dh) = (HEADS[hi], HEAD_DIMS[di]);
        let d = heads * dh;
        let stride = rel + rows + slack;
        (
            0usize..rows + 1,
            collection::vec(-2.0f32..2.0, d..=d),
            collection::vec(-2.0f32..2.0, rows * d..=rows * d),
            collection::vec(0.0f32..1.0, heads * stride..=heads * stride),
            collection::vec(-1.0f32..1.0, d..=d),
        )
            .prop_map(move |(cut, q, cache, probs, ctx)| Case {
                heads,
                dh,
                rows,
                cut,
                rel,
                slack,
                q,
                cache,
                probs,
                ctx,
            })
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Both kernels against their per-head loops for one cache dtype;
/// `narrow` maps the drawn f32 cache values into `E`.
fn check<E: Element>(c: &Case, narrow: impl Fn(f32) -> E) -> Result<(), String> {
    let (heads, dh, d) = (c.heads, c.dh, c.heads * c.dh);
    let stride = c.rel + c.rows + c.slack;
    let cache: Vec<E> = c.cache.iter().map(|&v| narrow(v)).collect();
    let scale = 1.0 / (dh as f32).sqrt();
    let span = |first_row: usize| RunSpan {
        heads,
        stride,
        rel: c.rel + first_row,
    };

    let mut want_scores = vec![-7.0f32; heads * stride];
    for (j, row) in cache.chunks_exact(d).enumerate() {
        for h in 0..heads {
            want_scores[h * stride + c.rel + j] =
                E::dot_with_f32(&c.q[h * dh..(h + 1) * dh], &row[h * dh..(h + 1) * dh]) * scale;
        }
    }
    let mut got_scores = vec![-7.0f32; heads * stride];
    E::score_run(&c.q, &cache[..c.cut * d], span(0), scale, &mut got_scores);
    E::score_run(&c.q, &cache[c.cut * d..], span(c.cut), scale, &mut got_scores);
    prop_assert_eq!(bits(&got_scores), bits(&want_scores));

    let mut want_ctx = c.ctx.clone();
    for (j, row) in cache.chunks_exact(d).enumerate() {
        for h in 0..heads {
            E::axpy_into_f32(
                c.probs[h * stride + c.rel + j],
                &row[h * dh..(h + 1) * dh],
                &mut want_ctx[h * dh..(h + 1) * dh],
            );
        }
    }
    let mut got_ctx = c.ctx.clone();
    E::accumulate_run(&c.probs, &cache[..c.cut * d], span(0), &mut got_ctx);
    E::accumulate_run(&c.probs, &cache[c.cut * d..], span(c.cut), &mut got_ctx);
    prop_assert_eq!(bits(&got_ctx), bits(&want_ctx));
    Ok(())
}

proptest! {
    cases = 96;

    #[test]
    fn run_kernels_match_the_per_head_loops_f32(c in cases()) {
        check::<f32>(&c, |v| v)?;
    }

    #[test]
    fn run_kernels_match_the_per_head_loops_f16(c in cases()) {
        check::<F16>(&c, F16::from_f32)?;
    }

    #[test]
    fn run_kernels_match_the_per_head_loops_i8(c in cases()) {
        check::<i8>(&c, |v| <i8 as Element>::from_f32(v * 60.0))?;
    }
}

/// A run that does not fit the `[heads, stride]` buffer is refused by the
/// safe wrapper, not handed to the raw-pointer kernel.
#[test]
#[should_panic(expected = "overruns the attention window")]
fn run_past_the_window_is_refused() {
    let q = vec![0.5f32; 16];
    let run = vec![0.25f32; 3 * 16];
    let mut scores = vec![0.0f32; 2 * 4];
    let span = RunSpan {
        heads: 2,
        stride: 4,
        rel: 2,
    };
    f32::score_run(&q, &run, span, 1.0, &mut scores);
}
