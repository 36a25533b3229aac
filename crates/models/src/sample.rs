//! Decoding strategies: greedy, temperature, top-k and top-p (nucleus)
//! sampling over an incremental [`TokenStream`].
//!
//! [`generate`] is instrumented with `obs`: the per-token latency and
//! time-to-first-token histograms the serving layer's `/metrics`
//! endpoint exposes, and the request trace's per-token phase records.

use std::sync::Arc;

use obs::metrics::Histogram;
use obs::reqtrace::{Phase, TraceMeta};
use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::RngExt;
use ratatouille_tensor::{ops, Tensor};

use crate::lm::InferenceModel;

/// Decoding configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Maximum tokens to generate (beyond the prompt).
    pub max_tokens: usize,
    /// Softmax temperature (1.0 = untouched; → 0 = argmax-like). Ignored
    /// when `greedy`.
    pub temperature: f32,
    /// Keep only the k most likely tokens (0 disables).
    pub top_k: usize,
    /// Nucleus sampling mass (1.0 disables).
    pub top_p: f32,
    /// Stop when this token is generated (it is not included in the
    /// output).
    pub stop_token: Option<u32>,
    /// Deterministic argmax decoding.
    pub greedy: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            max_tokens: 256,
            temperature: 0.9,
            top_k: 40,
            top_p: 0.95,
            stop_token: None,
            greedy: false,
        }
    }
}

/// The labeled series [`generate`] records into for one model:
/// `decode_token_ns{model=…,dtype=…}` and `ttft_ns{model=…}`.
/// Cardinality stays bounded because model names come from the closed
/// registry and dtypes from the closed `DType` enum. Resolving takes the
/// registry lock, so a serving replica resolves its series once, when it
/// is built (as `BatchGenerator::new` does), never per request.
pub struct DecodeSeries {
    token_ns: Arc<Histogram>,
    ttft: Arc<Histogram>,
}

impl DecodeSeries {
    /// Get or register `model`'s series.
    pub fn resolve<M: InferenceModel + ?Sized>(model: &M) -> DecodeSeries {
        let label = obs::metrics::label_value(model.name());
        let dtype = model.dtype().name();
        DecodeSeries {
            token_ns: obs::metrics::histogram(&format!(
                "decode_token_ns{{model=\"{label}\",dtype=\"{dtype}\"}}"
            )),
            // Labeled by model only (no dtype), so the pooled and batched
            // paths feed one series family per model.
            ttft: obs::metrics::histogram(&format!("ttft_ns{{model=\"{label}\"}}")),
        }
    }
}

/// Autoregressively generate a continuation of `prompt`. Returns only the
/// generated tokens (without the prompt, without the stop token).
///
/// Accepts any [`InferenceModel`] — trained f32 models and quantized
/// inference-only variants alike (`&dyn LanguageModel` call sites keep
/// working through the supertrait). Per-token latency lands in
/// `decode_token_ns` and `series`' labeled twin. `meta` is the request's
/// trace: each prompt token records a `prefill_chunk` phase, each sampled
/// token a `decode_step` phase (batch size 1 — this is the solo path),
/// and time-to-first-token, in `ttft_ns` and its twin, counts from
/// `meta.enqueued_ns` (prefill start if the caller left it 0). Untraced
/// metadata costs one branch per phase — no stamps, no stores — and the
/// token stream is identical either way (telemetry is write-only, §4b).
pub fn generate<M: InferenceModel + ?Sized>(
    model: &M,
    prompt: &[u32],
    cfg: &SamplerConfig,
    rng: &mut StdRng,
    meta: &TraceMeta,
    series: &DecodeSeries,
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "generate requires a non-empty prompt");
    let mut stream = model.start_stream();
    let mut logits: Option<Tensor> = None;
    let origin_ns = if meta.enqueued_ns != 0 {
        meta.enqueued_ns
    } else {
        obs::Clock::now().at_ns()
    };
    for (i, &t) in prompt.iter().enumerate() {
        logits = Some(stream.push(t));
        meta.record(Phase::PrefillChunk, i as u32, 1);
    }
    let mut out = Vec::with_capacity(cfg.max_tokens);
    let mut ttft_recorded = false;
    for _ in 0..cfg.max_tokens {
        let token_start = obs::Clock::now();
        // xlint: allow(transitive-panic-in-request-path): `prompt` is asserted non-empty, so the prefill loop set `logits`, and every iteration that continues sets it again
        let l = logits.take().expect("logits available after prompt");
        let next = select_token(&l, cfg, rng);
        if !ttft_recorded {
            ttft_recorded = true;
            let ttft = obs::Clock::now().at_ns().saturating_sub(origin_ns);
            obs::static_histogram!("ttft_ns").observe(ttft);
            series.ttft.observe(ttft);
        }
        if Some(next) == cfg.stop_token {
            meta.record(Phase::DecodeStep, out.len() as u32, 1);
            break;
        }
        out.push(next);
        meta.record(Phase::DecodeStep, out.len() as u32, 1);
        logits = Some(stream.push(next));
        let elapsed = token_start.elapsed_ns();
        obs::static_histogram!("decode_token_ns").observe(elapsed);
        series.token_ns.observe(elapsed);
    }
    out
}

/// Pick the next token from raw logits according to the config.
pub fn select_token(logits: &Tensor, cfg: &SamplerConfig, rng: &mut StdRng) -> u32 {
    if cfg.greedy {
        return ops::argmax_last(logits)[0] as u32;
    }
    let scaled = scale_logits(logits, cfg);
    let ranked = top_candidates(&scaled, top_k_of(cfg, scaled.len()));
    sample_ranked(&scaled, &ranked, cfg, rng)
}

/// Temperature-scaled logits with NaN mapped to `-inf`: a NaN is
/// unordered, and without one the ranking below is a total order.
fn scale_logits(logits: &Tensor, cfg: &SamplerConfig) -> Vec<f32> {
    let temp = cfg.temperature.max(1e-4);
    let scale = |&x: &f32| if x.is_nan() { f32::NEG_INFINITY } else { x / temp };
    logits.data().iter().map(scale).collect()
}

/// How many candidates survive the top-k cutoff out of `v`.
fn top_k_of(cfg: &SamplerConfig, v: usize) -> usize {
    if cfg.top_k > 0 {
        cfg.top_k.min(v)
    } else {
        v
    }
}

/// The `k` best candidate indices, best first: scaled logit descending,
/// index ascending among equals. [`scale_logits`] leaves no NaN, so that
/// order is total over every input (infinities included).
///
/// Each candidate is one `u64` [`rank_key`] that orders exactly so, the
/// logit in the high half and the index, flipped, in the low half. The `k`
/// largest keys are selected and only those sorted, so the ranked list is
/// a prefix of the full sort by construction, without sorting the whole
/// vocabulary and without a comparator call per comparison.
fn top_candidates(scaled: &[f32], k: usize) -> Vec<usize> {
    let mut keys: Vec<u64> = scaled.iter().enumerate().map(|(i, &x)| rank_key(x, i)).collect();
    let cut = keys.len() - k;
    if k > 0 && cut > 0 {
        keys.select_nth_unstable(cut);
    }
    let best = &mut keys[cut..];
    best.sort_unstable();
    best.iter().rev().map(|&key| (u32::MAX - key as u32) as usize).collect()
}

/// A key whose `u64` order is the ranking's: `ord(x + 0.0)` above `u32::MAX
/// − i`. `ord` maps `f32` bits to `u32` monotonically (negatives' bits
/// inverted, positives' sign bit set), and `+ 0.0` turns `-0` into `+0`,
/// which the ranking holds equal.
fn rank_key(x: f32, i: usize) -> u64 {
    let bits = (x + 0.0).to_bits();
    let ord = if bits >> 31 == 0 { bits | 0x8000_0000 } else { !bits };
    u64::from(ord) << 32 | u64::from(u32::MAX - i as u32)
}

/// Softmax over the ranked top-k candidates, nucleus cutoff, multinomial
/// draw.
fn sample_ranked(scaled: &[f32], ranked: &[usize], cfg: &SamplerConfig, rng: &mut StdRng) -> u32 {
    let mut kept = ranked;

    // softmax over kept
    let max = scaled[kept[0]];
    if !max.is_finite() {
        // `+inf` outranks everything; when nothing is finite every
        // candidate ties at `-inf` and the lowest index ranks first.
        return kept[0] as u32;
    }
    let mut probs: Vec<f32> = kept.iter().map(|&i| scaled[i] - max).collect();
    ops::libm::exp_in_place(&mut probs);
    let sum = ratatouille_util::accum::sum_f32(probs.iter().copied());
    for p in probs.iter_mut() {
        *p /= sum;
    }

    // top-p cutoff on the sorted distribution
    if cfg.top_p < 1.0 {
        let mut cum = 0.0f32;
        let mut cut = probs.len();
        for (i, &p) in probs.iter().enumerate() {
            // xlint: allow(float-reduction-order): the running prefix sum over the sorted distribution IS the top-p semantics; order is the point
            cum += p;
            if cum >= cfg.top_p {
                cut = i + 1;
                break;
            }
        }
        kept = &kept[..cut];
        probs.truncate(cut);
        let s = ratatouille_util::accum::sum_f32(probs.iter().copied());
        for p in probs.iter_mut() {
            *p /= s;
        }
    }

    // multinomial draw
    let mut x = rng.random::<f32>();
    for (&i, &p) in kept.iter().zip(&probs) {
        x -= p;
        if x <= 0.0 {
            return i as u32;
        }
    }
    // xlint: allow(transitive-panic-in-request-path): `kept` holds at least one index — top-k/top-p always keep >= 1 candidate
    *kept.last().unwrap() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_util::rng::SeedableRng;

    fn logits(values: &[f32]) -> Tensor {
        Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap()
    }

    #[test]
    fn greedy_picks_argmax() {
        let cfg = SamplerConfig {
            greedy: true,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let t = select_token(&logits(&[0.1, 5.0, 2.0]), &cfg, &mut rng);
        assert_eq!(t, 1);
    }

    #[test]
    fn top_k_restricts_support() {
        let cfg = SamplerConfig {
            top_k: 2,
            top_p: 1.0,
            temperature: 1.0,
            greedy: false,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        // indices 3 and 1 are the top-2
        let l = logits(&[0.0, 4.0, 1.0, 6.0, 0.5]);
        for _ in 0..200 {
            let t = select_token(&l, &cfg, &mut rng);
            assert!(t == 3 || t == 1, "sampled outside top-k: {t}");
        }
    }

    #[test]
    fn top_p_restricts_support() {
        let cfg = SamplerConfig {
            top_k: 0,
            top_p: 0.5,
            temperature: 1.0,
            greedy: false,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        // one dominant token holds > 50% of the mass
        let l = logits(&[10.0, 1.0, 1.0, 1.0]);
        for _ in 0..100 {
            assert_eq!(select_token(&l, &cfg, &mut rng), 0);
        }
    }

    #[test]
    fn low_temperature_approaches_greedy() {
        let cfg = SamplerConfig {
            top_k: 0,
            top_p: 1.0,
            temperature: 0.01,
            greedy: false,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let l = logits(&[1.0, 1.5, 1.2]);
        for _ in 0..100 {
            assert_eq!(select_token(&l, &cfg, &mut rng), 1);
        }
    }

    #[test]
    fn high_temperature_spreads_mass() {
        let cfg = SamplerConfig {
            top_k: 0,
            top_p: 1.0,
            temperature: 100.0,
            greedy: false,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let l = logits(&[1.0, 3.0]);
        let picks: Vec<u32> = (0..300).map(|_| select_token(&l, &cfg, &mut rng)).collect();
        let zeros = picks.iter().filter(|&&t| t == 0).count();
        // near-uniform: both sides sampled substantially
        assert!(zeros > 90 && zeros < 210, "zeros={zeros}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SamplerConfig::default();
        let l = logits(&[0.5, 0.7, 0.1, 0.9, 0.3]);
        let a: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| select_token(&l, &cfg, &mut rng)).collect()
        };
        let b: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20).map(|_| select_token(&l, &cfg, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    /// Every candidate index, best first: scaled logit descending, and — the
    /// sort being stable over `0..v` — index ascending among equals.
    fn rank_all(scaled: &[f32]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scaled.len()).collect();
        idx.sort_by(|&a, &b| scaled[b].partial_cmp(&scaled[a]).expect("scale_logits leaves no NaN"));
        idx
    }

    /// The comparator selection [`top_candidates`] replaced: the `k` best
    /// indices by (scaled logit descending, index ascending), selected
    /// with `select_nth_unstable_by`, then sorted.
    fn top_candidates_by_comparator(scaled: &[f32], k: usize) -> Vec<usize> {
        let by_rank = |a: &usize, b: &usize| {
            scaled[*b]
                .partial_cmp(&scaled[*a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        };
        let mut idx: Vec<usize> = (0..scaled.len()).collect();
        if k < idx.len() {
            idx.select_nth_unstable_by(k - 1, by_rank);
        }
        idx.truncate(k);
        idx.sort_unstable_by(by_rank);
        idx
    }

    /// The packed keys rank every row the way the comparator and the full
    /// sort do, at every `k` from 1 to `V`: `±0` ties (the ranking holds
    /// them equal, so the index decides), runs of equal logits straddling
    /// the cut, `±inf`, a row of nothing but `-inf`, and the extremes of
    /// `f32` — largest, least normal, subnormal, both signs.
    #[test]
    fn packed_key_top_k_matches_the_comparator_on_adversarial_rows() {
        let (inf, tiny) = (f32::INFINITY, f32::from_bits(1));
        let rows: Vec<Vec<f32>> = vec![
            vec![0.0, -0.0, 0.0, -0.0, 1.0, -0.0, -1.0, 0.0],
            vec![-0.0, -0.0, -tiny, tiny, 0.0, -0.0],
            (0..100).map(|i| (i / 7 % 5) as f32 * 0.5 - 1.0).collect(),
            vec![2.5; 17],
            vec![inf, 1.0, inf, -inf, -0.0, 0.0, -inf, inf, 1.0],
            vec![-inf; 9],
            vec![f32::MAX, f32::MIN, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, tiny, -tiny, -f32::MAX, f32::MAX],
            (0..384).map(|i| ((i * 37 % 101) as f32 - 50.0) / 0.9).collect(),
        ];
        for row in &rows {
            let full = rank_all(row);
            for k in 1..=row.len() {
                let ranked = top_candidates(row, k);
                assert_eq!(ranked, top_candidates_by_comparator(row, k), "k = {k} of {row:?}");
                assert_eq!(ranked, full[..k], "k = {k} of {row:?}");
            }
        }
    }

    /// The sampler as it was before the top-k selection: rank the whole
    /// vocabulary with one stable sort, then cut.
    fn select_token_by_full_sort(logits: &Tensor, cfg: &SamplerConfig, rng: &mut StdRng) -> u32 {
        let scaled = scale_logits(logits, cfg);
        let mut ranked = rank_all(&scaled);
        ranked.truncate(top_k_of(cfg, scaled.len()));
        sample_ranked(&scaled, &ranked, cfg, rng)
    }

    ratatouille_util::proptest! {
        cases = 128;

        /// Token for token the full-sort sampler, on logits drawn from a
        /// handful of levels so exact ties straddle the top-k boundary,
        /// with an occasional `-inf`, `+inf` or NaN level.
        #[test]
        fn top_k_selection_matches_the_full_sort(
            levels in ratatouille_util::proptest::collection::vec(0u32..9, 1..160),
            top_k in 0usize..48,
            pi in 0usize..3,
            seed in 0u64..1 << 32,
        ) {
            let values: Vec<f32> = levels
                .iter()
                .map(|&l| match l {
                    8 if seed % 5 == 0 => f32::NEG_INFINITY,
                    7 if seed % 7 == 0 => f32::NAN,
                    6 if seed % 11 == 0 => f32::INFINITY,
                    l => l as f32 * 0.75 - 2.0,
                })
                .collect();
            let l = logits(&values);
            let cfg = SamplerConfig {
                top_k,
                top_p: [0.5, 0.9, 1.0][pi],
                temperature: 0.7,
                greedy: false,
                ..Default::default()
            };
            let scaled = scale_logits(&l, &cfg);
            let k = top_k_of(&cfg, scaled.len());
            ratatouille_util::prop_assert_eq!(top_candidates(&scaled, k), rank_all(&scaled)[..k].to_vec());
            let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..8 {
                let token = select_token(&l, &cfg, &mut ra);
                ratatouille_util::prop_assert!((token as usize) < values.len());
                ratatouille_util::prop_assert_eq!(token, select_token_by_full_sort(&l, &cfg, &mut rb));
            }
        }
    }

    /// 256 logits in ±4, one in fifty NaN.
    fn nan_logits(seed: u64) -> Vec<f32> {
        let mut gen = StdRng::seed_from_u64(seed);
        (0..256)
            .map(|_| if gen.random::<f32>() < 0.02 { f32::NAN } else { gen.random::<f32>() * 8.0 - 4.0 })
            .collect()
    }

    /// Seed 3 of this generator panicked in the full sort ("user-provided
    /// comparison function does not correctly implement a total order")
    /// before `scale_logits` mapped NaN away; it was reachable from a
    /// served request.
    #[test]
    fn nan_logits_regression_seed_3() {
        let values = nan_logits(3);
        let sampling = SamplerConfig::default();
        let greedy = SamplerConfig { greedy: true, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let token = select_token(&logits(&values), &sampling, &mut rng) as usize;
        assert!(!values[token].is_nan(), "a NaN is never sampled");
        assert!((select_token(&logits(&values), &greedy, &mut rng) as usize) < values.len());
        // nothing finite: the lowest index, under sampling and greedy alike
        for cfg in [&sampling, &greedy] {
            assert_eq!(select_token(&logits(&[f32::NAN; 9]), cfg, &mut rng), 0);
            assert_eq!(select_token(&logits(&[f32::NEG_INFINITY; 9]), cfg, &mut rng), 0);
        }
        // `+inf` outranks everything; the lowest-index one wins
        let l = logits(&[f32::NAN, 1.0, f32::INFINITY, f32::INFINITY]);
        assert_eq!(select_token(&l, &sampling, &mut rng), 2);
        assert_eq!(select_token(&l, &greedy, &mut rng), 2);
    }

    /// Seed 9 of the same generator puts its NaN at logit 0. Greedy
    /// decoding picked token 0 for it: `argmax_last` compared with
    /// `v > row[best]`, which is never true against a NaN. It now ranks
    /// NaN as `-inf`, the sampler's rule, and picks the best number.
    #[test]
    fn nan_logit_zero_greedy_regression_seed_9() {
        let values = nan_logits(9);
        assert!(values[0].is_nan());
        let greedy = SamplerConfig { greedy: true, ..Default::default() };
        assert_eq!(select_token(&logits(&values), &greedy, &mut StdRng::seed_from_u64(9)), 99);
        assert_eq!(values[99], values.iter().copied().filter(|v| !v.is_nan()).fold(f32::MIN, f32::max));
    }

    #[test]
    fn generate_works_on_quantized_models() {
        use crate::gpt2::{Gpt2Config, Gpt2Lm};
        use crate::lm::LanguageModel;
        let m = Gpt2Lm::new(Gpt2Config {
            name: "tiny-gpt".into(),
            vocab: 16,
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_t: 16,
            local_window: None,
            dropout: 0.0,
            seed: 5,
        });
        let q = LanguageModel::quantized(&m).expect("gpt2 has an int8 variant");
        let cfg = SamplerConfig {
            max_tokens: 5,
            greedy: true,
            stop_token: None,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let series = DecodeSeries::resolve(q.as_ref());
        let out = generate(q.as_ref(), &[2], &cfg, &mut rng, &TraceMeta::default(), &series);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn generate_respects_stop_and_budget() {
        use crate::lstm::{LstmConfig, LstmLm};
        let m = LstmLm::new(LstmConfig {
            name: "t".into(),
            vocab: 8,
            d_embed: 4,
            d_hidden: 8,
            layers: 1,
            max_t: 32,
            dropout: 0.0,
            seed: 1,
        });
        let mut rng = StdRng::seed_from_u64(0);
        let series = DecodeSeries::resolve(&m);
        let cfg = SamplerConfig {
            max_tokens: 10,
            stop_token: None,
            ..Default::default()
        };
        let out = generate(&m, &[2], &cfg, &mut rng, &TraceMeta::default(), &series);
        assert_eq!(out.len(), 10);
        // stop token halts early and is excluded
        let cfg = SamplerConfig {
            max_tokens: 50,
            greedy: true,
            stop_token: Some(ops::argmax_last(&m.start_stream().push(2))[0] as u32),
            ..Default::default()
        };
        let out = generate(&m, &[2], &cfg, &mut rng, &TraceMeta::default(), &series);
        assert!(out.is_empty(), "greedy first pick is the stop token");
    }
}
