//! Batch-invariance of the GEMM kernels: row `i` of `matmul(A, B)` must
//! be **bitwise** identical no matter how many other rows ride along in
//! `A`. This is the kernel-level foundation of the serving layer's
//! batch-determinism contract (see `ratatouille_models::batch`): a
//! request decoding in a batch of 7 reuses the exact accumulation chain
//! it would get solo.
//!
//! The invariant holds whenever `N % 16 == 0` (the microkernel's `NR`
//! tile width): then every output element is one FMA chain over `k`
//! ascending from `+0`, whether its row runs through the row-accumulate
//! kernel (`M = 1`, and the `M % 4` rows left over below `PACK_MIN_M`),
//! a `4 × 16` tile over B's raw rows (below `PACK_MIN_M`), or the packed
//! path (from `PACK_MIN_M` = 32 up). `matmul_transb` computes independent
//! per-element dots, so it is invariant for any `N`. These tests pin both
//! facts on each side of the packing switch, deterministically.

use ratatouille_tensor::{ops, Tensor};

/// Deterministic pseudo-random data (no RNG dependency, no seeds to
/// drift): a fixed-point sine sweep with enough dynamic range to expose
/// any reassociation in f32.
fn fill(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32 * 0.7310 + phase).sin() * 3.25) + (i % 7) as f32 * 0.125)
        .collect()
}

fn rows(t: &Tensor, n_cols: usize) -> Vec<&[f32]> {
    t.data().chunks(n_cols).collect()
}

/// `matmul`'s `PACK_MIN_M`: B is packed from this many rows up.
const PACK_MIN_M: usize = 32;

/// Every row of `matmul(A, B)` and of `matmul_transa(Aᵀ, B)` equals its
/// 1-row product bit for bit, for every `m` through both sides of the
/// packing switch (each `m % 4` remainder on each side), at `k` below,
/// at and past the `KC = 256` k-block, and `n` of one, three and 24 tiles.
#[test]
fn matmul_row_is_independent_of_batch_size() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let max_m = 2 * PACK_MIN_M + 3;
    for k in [5usize, 128, 300, 512] {
        let a = fill(max_m * k, 1.7);
        for n in [16usize, 48, 384] {
            let b = Tensor::from_vec(fill(k * n, 0.3), &[k, n]).unwrap();
            let solo: Vec<Vec<u32>> = a
                .chunks(k)
                .map(|row| bits(ops::matmul(&Tensor::from_vec(row.to_vec(), &[1, k]).unwrap(), &b).data()))
                .collect();
            for m in 1..=max_m {
                let rows_of = Tensor::from_vec(a[..m * k].to_vec(), &[m, k]).unwrap();
                let columns_of = Tensor::from_vec((0..k * m).map(|i| a[(i % m) * k + i / m]).collect(), &[k, m]).unwrap();
                for (name, full) in [("matmul", ops::matmul(&rows_of, &b)), ("matmul_transa", ops::matmul_transa(&columns_of, &b))] {
                    for (i, row) in rows(&full, n).into_iter().enumerate() {
                        assert_eq!(
                            bits(row),
                            solo[i],
                            "{name} row {i} differs between m=1 and m={m} for k={k}, n={n} \
                             (bitwise; batch invariance broken)"
                        );
                    }
                }
            }
        }
    }
}

/// `matmul_transb` (the LM head: logits = hidden · Wteᵀ) gives every
/// output the bits of its own `simd::dot`, so invariance holds for ANY n
/// — including the odd vocab sizes tokenizers produce. At `m ≥ 2` rows
/// run in pairs against column triples through a tile that replays the
/// dot, so every row is checked (paired, or the odd one out) at `k` on
/// each side of the dot's 16-, 8- and scalar-tail boundaries
/// (`k % 16` = 0, 1–7, 8 and 9–15).
#[test]
fn matmul_transb_rows_are_batch_invariant() {
    for k in [5usize, 8, 13, 24, 48, 100] {
        for n in [10usize, 16, 37, 100] {
            let bt = Tensor::from_vec(fill(n * k, 2.2), &[n, k]).unwrap();
            for m in [2usize, 3, 7, 8, 9] {
                let a = Tensor::from_vec(fill(m * k, 4.9), &[m, k]).unwrap();
                let full = ops::matmul_transb(&a, &bt);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                for (i, row) in rows(&full, n).into_iter().enumerate() {
                    let own = Tensor::from_vec(a.data()[i * k..(i + 1) * k].to_vec(), &[1, k]).unwrap();
                    assert_eq!(
                        bits(row),
                        bits(ops::matmul_transb(&own, &bt).data()),
                        "transb row {i} differs between m=1 and m={m} for k={k}, n={n}"
                    );
                }
            }
        }
    }
}

/// Row-wise elementwise ops preserve per-row bits regardless of how
/// many rows share the tensor — the rest of the batched forward pass.
#[test]
fn rowwise_ops_are_batch_invariant() {
    let d = 64usize;
    let solo_in = Tensor::from_vec(fill(d, 3.3), &[1, d]).unwrap();
    let gamma = Tensor::from_vec(fill(d, 0.5), &[d]).unwrap();
    let beta = Tensor::from_vec(fill(d, 1.5), &[d]).unwrap();
    let (solo_ln, _, _) = ops::layer_norm(&solo_in, &gamma, &beta, 1e-5);
    let solo_gelu = ops::gelu(&solo_in);
    for m in [2usize, 5, 8] {
        let mut data = fill(d, 3.3);
        data.extend(fill(d * (m - 1), 8.8));
        let batch = Tensor::from_vec(data, &[m, d]).unwrap();
        let (ln, _, _) = ops::layer_norm(&batch, &gamma, &beta, 1e-5);
        assert_eq!(rows(&ln, d)[0].to_vec(), solo_ln.data().to_vec());
        let gl = ops::gelu(&batch);
        assert_eq!(rows(&gl, d)[0].to_vec(), solo_gelu.data().to_vec());
    }
}
