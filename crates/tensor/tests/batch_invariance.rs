//! Batch-invariance of the GEMM kernels: row `i` of `matmul(A, B)` must
//! be **bitwise** identical no matter how many other rows ride along in
//! `A`. This is the kernel-level foundation of the serving layer's
//! batch-determinism contract (see `ratatouille_models::batch`): a
//! request decoding in a batch of 7 reuses the exact accumulation chain
//! it would get solo.
//!
//! The invariant holds whenever `N % 16 == 0` (the packed microkernel's
//! `NR` tile width): then every output element's dot product runs the
//! same split-free loop in both the unpacked small-`m` path (`m < 8`)
//! and the packed path. `matmul_transb` computes independent
//! per-element dots, so it is invariant for any `N`. These tests pin
//! both facts across the `m = 8` path switch, deterministically.

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

/// For every batch size `m` crossing the packed/unpacked switch at 8,
/// row 0 of the product must equal the 1-row product bit for bit.
#[test]
fn matmul_row_is_independent_of_batch_size() {
    // Shapes mirror the models: N is the GEMM output width, and every
    // model width the batched path serves is a multiple of NR = 16.
    for (k, n) in [(16, 16), (24, 32), (64, 48)] {
        let b = Tensor::from_vec(fill(k * n, 0.3), &[k, n]).unwrap();
        let first = Tensor::from_vec(fill(k, 1.7), &[1, k]).unwrap();
        let solo = ops::matmul(&first, &b);
        for m in 2..=10usize {
            let mut data = fill(k, 1.7); // row 0 identical to `first`
            data.extend(fill(k * (m - 1), 9.1));
            let a = Tensor::from_vec(data, &[m, k]).unwrap();
            let full = ops::matmul(&a, &b);
            assert_eq!(
                rows(&full, n)[0].to_vec(),
                solo.data().to_vec(),
                "row 0 differs between m=1 and m={m} for k={k}, n={n} \
                 (bitwise; batch invariance broken)"
            );
        }
    }
}

/// Every row of a batched product equals that row computed solo — not
/// just row 0 (position in the batch must not matter either).
#[test]
fn matmul_every_row_matches_its_solo_product() {
    let (m, k, n) = (10usize, 32usize, 64usize);
    let b = Tensor::from_vec(fill(k * n, 0.11), &[k, n]).unwrap();
    let a = Tensor::from_vec(fill(m * k, 5.3), &[m, k]).unwrap();
    let full = ops::matmul(&a, &b);
    for i in 0..m {
        let row = a.data()[i * k..(i + 1) * k].to_vec();
        let solo = ops::matmul(&Tensor::from_vec(row, &[1, k]).unwrap(), &b);
        assert_eq!(
            rows(&full, n)[i].to_vec(),
            solo.data().to_vec(),
            "row {i} not bitwise-identical to its solo product"
        );
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
