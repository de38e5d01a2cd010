//! Hot-path regression gate: `cargo run --release -p chatlens-bench`.
//!
//! Runs the collection campaign at bench scale three times, takes the
//! per-stage median of the campaign's own `stage.*` wall-clock counters
//! (recorded by [`Metrics::time_stage`] inside the study loop), times the
//! canonical report render the same way, and compares every stage against
//! the committed `BENCH_hotpath.json` baseline in the workspace root.
//!
//! Exit status is the CI contract:
//!
//! - any stage more than [`REGRESSION_PCT`]% slower than its baseline
//!   fails the run (exit 1) with a per-stage table on stderr;
//! - stages whose baseline is under [`NOISE_FLOOR_MICROS`] are reported
//!   but never gated — at bench scale they sit inside scheduler noise;
//! - a stage present in the baseline but absent from the run fails it
//!   (a stage silently vanishing is a harness bug, not a speedup).
//!
//! Refreshing the baseline (after an intentional perf change, or on a
//! machine with a different clock base):
//!
//! ```sh
//! BENCH_HOTPATH_UPDATE=1 cargo run --release -p chatlens-bench
//! ```
//!
//! then commit the rewritten `BENCH_hotpath.json` and justify the new
//! numbers in the PR description. `BENCH_OUT_DIR` relocates the record
//! (same knob the `par` bench honours); `BENCH_HOTPATH_SCALE` overrides
//! the campaign scale (default [`HOTPATH_SCALE`]).

use chatlens_core::run_study;
use chatlens_simnet::metrics::{keys, Metrics};
use chatlens_workload::ScenarioConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default campaign scale: double the `par` bench scale, so every
/// stage clears the noise floor while three runs stay under ~10 s.
const HOTPATH_SCALE: f64 = 0.02;

/// Fail on a stage more than this much slower than its baseline.
const REGRESSION_PCT: u64 = 25;

/// Stages whose baseline median is below this are too small to gate.
const NOISE_FLOOR_MICROS: u64 = 10_000;

/// Campaign runs per measurement (median taken per stage).
const RUNS: usize = 3;

/// One campaign + report render, returning `stage name -> micros`.
fn measure(scale: f64) -> BTreeMap<String, u64> {
    let ds = run_study(ScenarioConfig::at_scale(scale));
    let mut report_clock = Metrics::new();
    report_clock.time_stage(keys::STAGE_REPORT, || ds.campaign_report());

    let mut out = BTreeMap::new();
    for (name, micros) in ds.metrics.stages().chain(report_clock.stages()) {
        if let Some(stage) = name
            .strip_prefix("stage.")
            .and_then(|n| n.strip_suffix(".micros"))
        {
            out.insert(stage.to_string(), micros);
        }
    }
    out
}

/// Median per stage across `RUNS` measurements.
fn medians(scale: f64) -> BTreeMap<String, u64> {
    let mut all: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for run in 0..RUNS {
        for (stage, micros) in measure(scale) {
            all.entry(stage).or_default().push(micros);
        }
        eprintln!("hotpath bench: run {}/{RUNS} done", run + 1);
    }
    all.into_iter()
        .map(|(stage, mut v)| {
            v.sort_unstable();
            let mid = v[v.len() / 2];
            (stage, mid)
        })
        .collect()
}

/// Render the machine-readable record (hand-rolled: no format crate in
/// the offline set, and the layout doubles as the baseline file format).
fn render_json(scale: f64, stages: &BTreeMap<String, u64>) -> String {
    let mut json = String::from("{\n  \"bench\": \"hotpath\",\n  \"scale\": ");
    let _ = write!(json, "{scale},\n  \"stages\": [\n");
    for (i, (stage, micros)) in stages.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"stage\": \"{stage}\", \"micros\": {micros}}}{}",
            if i + 1 == stages.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// Parse a record previously written by [`render_json`]. Line-oriented on
/// purpose: the only accepted input is this binary's own output.
fn parse_baseline(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"stage\": \"") else {
            continue;
        };
        let Some((stage, rest)) = rest.split_once("\", \"micros\": ") else {
            continue;
        };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(micros) = digits.parse::<u64>() {
            out.insert(stage.to_string(), micros);
        }
    }
    out
}

fn main() {
    let scale = std::env::var("BENCH_HOTPATH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(HOTPATH_SCALE);
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| {
        // `cargo run -p` keeps CWD at the invocation site; anchor the
        // record to the workspace root via the manifest dir instead.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string()
    });
    let path = format!("{dir}/BENCH_hotpath.json");

    let current = medians(scale);
    let update = std::env::var("BENCH_HOTPATH_UPDATE").is_ok_and(|v| v == "1");
    // lint:allow(D13) bench baselines live outside the simulation's durability domain
    let baseline_text = std::fs::read_to_string(&path).ok();

    if update || baseline_text.is_none() {
        let why = if update {
            "refresh requested"
        } else {
            "no baseline"
        };
        // lint:allow(D6, D13) the regression gate's whole job is maintaining this record
        std::fs::write(&path, render_json(scale, &current)).expect("write BENCH_hotpath.json");
        eprintln!("hotpath bench: wrote baseline {path} ({why})");
        for (stage, micros) in &current {
            eprintln!("hotpath bench: {stage:<10} {micros:>10} us  (baseline)");
        }
        return;
    }

    let baseline = parse_baseline(&baseline_text.unwrap_or_default());
    let mut failures = Vec::new();
    for (stage, &base) in &baseline {
        let Some(&now) = current.get(stage) else {
            failures.push(format!(
                "stage {stage:?} present in baseline but not in this run"
            ));
            continue;
        };
        let gated = base >= NOISE_FLOOR_MICROS;
        let limit = base + base * REGRESSION_PCT / 100;
        let verdict = if !gated {
            "ungated (noise floor)"
        } else if now > limit {
            failures.push(format!(
                "stage {stage:?} regressed: {now} us vs baseline {base} us (limit {limit} us)"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!("hotpath bench: {stage:<10} {now:>10} us  baseline {base:>10} us  {verdict}");
    }
    for stage in current.keys().filter(|s| !baseline.contains_key(*s)) {
        eprintln!("hotpath bench: {stage:<10} (new stage, not in baseline — not gated)");
    }

    if failures.is_empty() {
        eprintln!("hotpath bench: all stages within {REGRESSION_PCT}% of baseline");
    } else {
        for f in &failures {
            eprintln!("hotpath bench: FAIL: {f}");
        }
        eprintln!(
            "hotpath bench: refresh with BENCH_HOTPATH_UPDATE=1 cargo run --release -p chatlens-bench \
             if the change is intentional"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_through_the_record_format() {
        let stages: BTreeMap<String, u64> =
            [("monitor".to_string(), 123_456), ("join".to_string(), 7)]
                .into_iter()
                .collect();
        let json = render_json(0.02, &stages);
        assert_eq!(parse_baseline(&json), stages);
    }

    #[test]
    fn foreign_lines_do_not_parse_as_stages() {
        let parsed = parse_baseline("{\n \"bench\": \"hotpath\",\n \"scale\": 0.02\n}\n");
        assert!(parsed.is_empty());
    }
}
