//! Failure injection: the paper's Colab environment crashed "after every
//! 5 to 7 epochs". These tests simulate that through the whole public
//! stack — crash mid-training, resume from the checkpoint, and end on the
//! exact trajectory of an uninterrupted run; plus corrupted/truncated
//! checkpoint handling.

use ratatouille::models::data::Dataset;
use ratatouille::models::registry::{ModelKind, ModelSpec};
use ratatouille::models::train::{TrainConfig, Trainer};
use ratatouille::{Pipeline, PipelineConfig};

fn pipeline() -> Pipeline {
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 80;
    Pipeline::prepare(cfg)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rt-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gpt2_crash_resume_matches_uninterrupted_run() {
    let p = pipeline();
    let dir = tmpdir("resume");
    let ckpt = dir.join("gpt2.ckpt");

    let base_cfg = TrainConfig {
        steps: 12,
        batch_size: 2,
        ..Default::default()
    };

    // Uninterrupted run.
    let spec_full = ModelSpec::build(ModelKind::DistilGpt2, &p.train_texts);
    let ds = Dataset::from_texts(&p.train_texts, spec_full.tokenizer.as_ref(), spec_full.block_size);
    let full = Trainer::new(spec_full.model.as_ref(), &ds, base_cfg.clone()).train();

    // Crash at step 6 (checkpoint persisted), then resume to 12.
    let spec_a = ModelSpec::build(ModelKind::DistilGpt2, &p.train_texts);
    let crash_cfg = TrainConfig {
        steps: 6,
        checkpoint_every: 6,
        checkpoint_path: Some(ckpt.clone()),
        ..base_cfg.clone()
    };
    let writes = obs::metrics::histogram("train_checkpoint_write_ns");
    let writes_before = writes.count();
    let first = Trainer::new(spec_a.model.as_ref(), &ds, crash_cfg).train();
    // One write at step 6 and the final one; other tests in this binary
    // may add theirs concurrently.
    assert!(
        writes.count() >= writes_before + 2,
        "train_checkpoint_write_ns counted {} writes, expected at least 2",
        writes.count() - writes_before
    );

    let spec_b = ModelSpec::build(ModelKind::DistilGpt2, &p.train_texts);
    let resume_cfg = TrainConfig {
        steps: 12,
        ..base_cfg
    };
    let second = Trainer::new(spec_b.model.as_ref(), &ds, resume_cfg)
        .resume(&ckpt)
        .expect("resume");

    let mut glued = first.losses.clone();
    glued.extend(&second.losses);
    assert_eq!(glued.len(), full.losses.len());
    for (i, (a, b)) in glued.iter().zip(&full.losses).enumerate() {
        assert!(
            (a - b).abs() < 1e-3,
            "trajectory diverged at step {i}: {a} vs {b}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_checkpoint_rejected_cleanly() {
    let p = pipeline();
    let dir = tmpdir("trunc");
    let ckpt = dir.join("m.ckpt");
    let spec = ModelSpec::build(ModelKind::WordLstm, &p.train_texts);
    let ds = Dataset::from_texts(&p.train_texts, spec.tokenizer.as_ref(), spec.block_size);
    let cfg = TrainConfig {
        steps: 2,
        batch_size: 2,
        checkpoint_every: 2,
        checkpoint_path: Some(ckpt.clone()),
        ..Default::default()
    };
    Trainer::new(spec.model.as_ref(), &ds, cfg.clone()).train();

    // Truncate the file: simulates a crash *during* a pre-atomic-write
    // copy (e.g. a partially synced disk) — must be detected, not loaded.
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    let spec2 = ModelSpec::build(ModelKind::WordLstm, &p.train_texts);
    let err = Trainer::new(spec2.model.as_ref(), &ds, cfg)
        .resume(&ckpt)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("corrupt") || msg.contains("truncated") || msg.contains("checksum"),
        "unhelpful error: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_weights_transfer_between_replicas() {
    // The serving path relies on weight maps round-tripping exactly.
    let p = pipeline();
    let trained = p.train(
        ModelKind::WordLstm,
        Some(TrainConfig {
            steps: 3,
            batch_size: 2,
            ..Default::default()
        }),
    );
    let factory = trained.backend_factory();
    // Same seed replicas produce identical recipes: pure function of weights.
    let mut r1 = factory(7);
    let mut r2 = factory(7);
    let a = r1.generate(&["flour".into()]);
    let b = r2.generate(&["flour".into()]);
    assert_eq!(a, b, "replicas with identical seeds diverged");
}
