//! Command-line error handling of `repro`: a missing or malformed flag
//! value and an unknown option are usage errors (exit 2 with one
//! diagnostic naming the flag), never a panic and never a silent run.

use std::process::{Command, Output};

/// Every flag that takes a value.
const VALUE_FLAGS: &str = "--scale --seed --threads --analysis --format --out --validate --csv \
    --checkpoint-dir --checkpoint-every --resume --fault-profile --corruption --disk-fault \
    --halt-after-day --mem-budget --spill-dir --report-out --outage --ban";

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// Asserts `args` is refused as a usage error whose diagnostic names
/// `needle`, and returns that diagnostic.
fn assert_usage_error(args: &[&str], needle: &str) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    stderr
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    for flag in VALUE_FLAGS.split_whitespace() {
        let stderr = assert_usage_error(&[flag], flag);
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
    }
}

#[test]
fn a_malformed_value_is_a_usage_error() {
    assert_usage_error(&["--threads", "abc", "run"], "--threads");
    assert_usage_error(&["--seed", "-1", "run"], "--seed");
    assert_usage_error(&["--outage", "whatsapp:1", "run"], "whatsapp:1");
}

#[test]
fn an_unknown_option_is_refused_not_taken_as_the_artifact() {
    // A typo must not fall through to a campaign at the default settings.
    assert_usage_error(&["--scale", "0.001", "--thraeds", "2", "run"], "--thraeds");
}

#[test]
fn well_formed_flags_are_accepted() {
    let args = "--scale 0.01 --seed 7 --threads 2 --analysis batch --fault-profile calm \
        --corruption calm --disk-fault calm --checkpoint-every 1 --timings dump-config";
    let out = repro(&args.split_whitespace().collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"seed\""));
}
