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

/// Per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chatlens-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Asserts `args` fails with exit code 2 and exactly one `error:` line
/// naming `needle`, and no panic.
fn assert_one_error_line(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    assert!(errors[0].contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn option_combinations_no_entry_point_can_run_are_refused() {
    let spill = scratch("refusals");
    let spill = spill.to_str().expect("utf-8 temp dir");
    assert_usage_error(
        &[
            "--mem-budget",
            "min",
            "--spill-dir",
            spill,
            "--analysis",
            "incremental",
            "run",
        ],
        "--mem-budget does not combine with --analysis incremental",
    );
    assert_usage_error(
        &["--mem-budget", "min", "all"],
        "only supports the `run` artifact",
    );
    assert_usage_error(
        &["--halt-after-day", "3", "run"],
        "--halt-after-day needs --checkpoint-dir",
    );
}

#[test]
fn an_incremental_resume_of_a_batch_chain_is_a_typed_refusal() {
    let dir = scratch("batch-chain");
    let chain = dir.to_str().expect("utf-8 temp dir");
    let halt = [
        "--scale",
        "0.001",
        "--checkpoint-dir",
        chain,
        "--halt-after-day",
        "2",
        "run",
    ];
    assert!(repro(&halt).status.success(), "the batch chain is written");
    assert_one_error_line(
        &["--analysis", "incremental", "--resume", chain, "run"],
        "no fold ledger",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_snapshot_save_exits_2_with_or_without_a_budget() {
    let dir = scratch("save-fails");
    let not_a_dir = dir.join("file");
    std::fs::write(&not_a_dir, b"a regular file").expect("scratch writable");
    let ckpt = not_a_dir.to_str().expect("utf-8 temp dir");
    let spill = dir.join("spill");
    let spill = spill.to_str().expect("utf-8 temp dir");
    let plain = ["--scale", "0.001", "--checkpoint-dir", ckpt, "run"];
    assert_one_error_line(&plain, "snapshot save failed");
    let budgeted = [
        "--scale",
        "0.001",
        "--checkpoint-dir",
        ckpt,
        "--mem-budget",
        "min",
        "--spill-dir",
        spill,
        "run",
    ];
    assert_one_error_line(&budgeted, "snapshot save failed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_refuses_options_that_would_save_halt_fold_or_resume() {
    let dir = scratch("audit");
    let chain = dir.to_str().expect("utf-8 temp dir");
    let halt = [
        "--scale",
        "0.001",
        "--checkpoint-dir",
        chain,
        "--halt-after-day",
        "2",
        "run",
    ];
    assert!(repro(&halt).status.success(), "the chain is written");
    let snapshot = dir.join("day002.ckpt");
    let snapshot = snapshot.to_str().expect("utf-8 temp dir");
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("chain dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    for (extra, flag) in [
        (&["--checkpoint-dir", chain][..], "--checkpoint-dir"),
        (&["--resume", chain][..], "--resume"),
        (&["--halt-after-day", "3"][..], "--halt-after-day"),
        (&["--analysis", "incremental"][..], "--analysis incremental"),
    ] {
        let mut args = vec!["audit", snapshot];
        args.extend_from_slice(extra);
        assert_usage_error(&args, &format!("audit does not combine with {flag}"));
    }
    assert_eq!(listing(), before, "a refused audit writes nothing");
    let out = repro(&["audit", snapshot]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("audit clean"));
    assert_eq!(listing(), before, "an audit writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
