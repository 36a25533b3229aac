//! The `ratatouille` CLI rejects a bad numeric flag with exit status 2
//! before it builds a corpus or trains anything.

use std::process::Command;

fn ratatouille(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ratatouille"))
        .args(args)
        .output()
        .expect("ratatouille runs");
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn non_numeric_steps_exits_2() {
    let (code, stderr) = ratatouille(&["generate", "--steps", "abc"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--steps expects a number"), "{stderr}");
    assert!(!stderr.contains("preparing corpus"), "{stderr}");
}

#[test]
fn trailing_steps_without_a_value_exits_2() {
    let (code, stderr) = ratatouille(&["generate", "--model", "word-lstm", "--steps"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!stderr.contains("preparing corpus"), "{stderr}");
}

#[test]
fn a_bad_numeric_flag_fails_before_the_corpus_is_built() {
    for args in [
        &["eval", "--recipes", "many"][..],
        &["serve", "--port", "http"],
        &["generate", "--seed", "-1"],
    ] {
        let (code, stderr) = ratatouille(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("preparing corpus"), "{args:?}: {stderr}");
    }
}
