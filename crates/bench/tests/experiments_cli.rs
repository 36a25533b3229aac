//! The `experiments` binary's dispatch: the artifact list, and exit
//! status 2 on an unknown artifact or scale. Nothing here trains.

use std::process::{Command, Output};

fn experiments(args: &[&str], scale: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(args).env_remove("RATATOUILLE_SCALE");
    if let Some(scale) = scale {
        cmd.env("RATATOUILLE_SCALE", scale);
    }
    cmd.output().expect("experiments runs")
}

#[test]
fn list_prints_the_twelve_artifacts() {
    let out = experiments(&["--list"], None);
    assert!(out.status.success());
    let names: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(
        names,
        [
            "ablation_preprocess",
            "ablation_sampling",
            "ablation_tokens",
            "fig1_raw_dataset",
            "fig2_preprocessed",
            "fig3_generation_flow",
            "fig4_web_generate",
            "fig5_sample_recipe",
            "future_work_gptneo",
            "quantized_bleu",
            "table1_bleu",
            "training_speedup",
        ]
    );
}

#[test]
fn unknown_artifact_or_no_argument_prints_usage_and_exits_2() {
    for args in [&["table1"][..], &[], &["table1_bleu", "extra"]] {
        let out = experiments(args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--list"), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_scale_exits_2_before_any_work() {
    let out = experiments(&["table1_bleu"], Some("bogus"));
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
