//! `koala-sim run` turns an out-of-range configuration field into a
//! one-line error and exit code 1, never a panic.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_koala-sim");

/// Writes the `koala-sim init` template with one `"field": value` pair
/// rewritten, runs it, and returns the exit code and stderr.
fn run_with(field: &str, value: &str) -> (Option<i32>, String) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("koala-cli-{}-{field}.json", std::process::id()));
    let init = Command::new(BIN)
        .arg("init")
        .arg(&path)
        .output()
        .expect("koala-sim runs");
    assert!(init.status.success(), "init failed");
    let text = std::fs::read_to_string(&path).expect("template written");
    let key = format!("\"{field}\": ");
    let start = text.find(&key).expect("field in template") + key.len();
    let end = start + text[start..].find([',', '\n']).expect("value ends");
    std::fs::write(&path, format!("{}{value}{}", &text[..start], &text[end..]))
        .expect("config rewritten");
    let out = Command::new(BIN)
        .arg("run")
        .arg(&path)
        .output()
        .expect("koala-sim runs");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn infinite_coalloc_penalty_is_a_config_error() {
    let (code, stderr) = run_with("coalloc_penalty", "1e999");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("invalid configuration: coalloc_penalty must be finite and >= 0"),
        "{stderr}"
    );
}

#[test]
fn initiative_fraction_out_of_range_is_a_config_error() {
    for value in ["2.0", "-1.0", "1e999"] {
        let (code, stderr) = run_with("initiative_fraction", value);
        assert_eq!(code, Some(1), "{value}: {stderr}");
        assert!(
            stderr.contains("invalid configuration: workload.initiative_fraction"),
            "{value}: {stderr}"
        );
    }
}
