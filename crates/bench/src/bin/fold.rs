//! Fold regression gate: `cargo run --release -p chatlens-bench --bin fold`.
//!
//! The incremental-analysis twin of the hotpath gate. Runs the campaign
//! at bench scale three times with the standard [`DayFold`] set threaded
//! through the day loop, measures
//!
//! - `batch_report` — wall micros to render every batch analysis
//!   fragment from the final dataset (the report-stage latency the
//!   incremental path amortises across the campaign),
//! - `fold_day` — total wall micros spent folding days, summed over all
//!   folds (`stage.fold.*` counters),
//! - `fold_finish` — wall micros to render every fragment from folded
//!   state (`stage.fold_finish.*` counters),
//! - `state_peak_bytes` — peak total encoded fold-state bytes at any day
//!   boundary (deterministic, so a byte-level regression gate),
//!
//! takes per-entry medians, and compares against the committed
//! `BENCH_fold.json` baseline in the workspace root. Entries more than
//! [`REGRESSION_PCT`]% above baseline fail the run (exit 1); entries
//! with baselines under [`NOISE_FLOOR`] are reported but never gated.
//!
//! Refresh after an intentional change (mirroring the hotpath knob):
//!
//! ```sh
//! BENCH_FOLD_UPDATE=1 cargo run --release -p chatlens-bench --bin fold
//! ```
//!
//! `BENCH_OUT_DIR` relocates the record; `BENCH_FOLD_SCALE` overrides
//! the campaign scale (default [`FOLD_SCALE`]).
//!
//! [`DayFold`]: chatlens_core::DayFold

use chatlens_analysis::{batch_fragments, standard_folds};
use chatlens_core::{Campaign, FoldDriver};
use chatlens_simnet::metrics::{keys, Metrics};
use chatlens_simnet::par::Pool;
use chatlens_workload::ScenarioConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default campaign scale — same as the hotpath gate.
const FOLD_SCALE: f64 = 0.02;

/// Fail on an entry more than this much above its baseline.
const REGRESSION_PCT: u64 = 25;

/// Entries whose baseline is below this are too small to gate.
const NOISE_FLOOR: u64 = 10_000;

/// Campaign runs per measurement (median taken per entry).
const RUNS: usize = 3;

/// One folded campaign + one batch report render, as `entry -> value`.
fn measure(scale: f64) -> BTreeMap<String, u64> {
    let mut driver = FoldDriver::new(standard_folds(), 1);
    let ds = Campaign::new(Default::default())
        .folds(&mut driver)
        .run(ScenarioConfig::at_scale(scale))
        .expect("folded campaign completes")
        .into_dataset()
        .expect("an unbudgeted campaign assembles a dataset");
    let outcome = driver.finish();

    let pool = Pool::new(1);
    let mut batch_clock = Metrics::new();
    batch_clock.time_stage(keys::STAGE_BATCH_REPORT, || batch_fragments(&ds, &pool));

    let sum_prefix = |prefix: &str| -> u64 {
        outcome
            .metrics
            .stages()
            .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(".micros"))
            .map(|(_, micros)| micros)
            .sum()
    };
    let mut out = BTreeMap::new();
    out.insert(
        "batch_report".to_string(),
        batch_clock.stage_micros(keys::STAGE_BATCH_REPORT),
    );
    out.insert("fold_day".to_string(), sum_prefix("stage.fold."));
    out.insert("fold_finish".to_string(), sum_prefix("stage.fold_finish."));
    out.insert("state_peak_bytes".to_string(), outcome.peak_state_bytes);
    out
}

/// Median per entry across `RUNS` measurements.
fn medians(scale: f64) -> BTreeMap<String, u64> {
    let mut all: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for run in 0..RUNS {
        for (entry, value) in measure(scale) {
            all.entry(entry).or_default().push(value);
        }
        eprintln!("fold bench: run {}/{RUNS} done", run + 1);
    }
    all.into_iter()
        .map(|(entry, mut v)| {
            v.sort_unstable();
            let mid = v[v.len() / 2];
            (entry, mid)
        })
        .collect()
}

/// Render the machine-readable record (hand-rolled, mirroring the
/// hotpath gate: the layout doubles as the baseline file format).
fn render_json(scale: f64, entries: &BTreeMap<String, u64>) -> String {
    let mut json = String::from("{\n  \"bench\": \"fold\",\n  \"scale\": ");
    let _ = write!(json, "{scale},\n  \"entries\": [\n");
    for (i, (entry, value)) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"entry\": \"{entry}\", \"value\": {value}}}{}",
            if i + 1 == entries.len() { "" } else { "," }
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
        let Some(rest) = line.trim().strip_prefix("{\"entry\": \"") else {
            continue;
        };
        let Some((entry, rest)) = rest.split_once("\", \"value\": ") else {
            continue;
        };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(value) = digits.parse::<u64>() {
            out.insert(entry.to_string(), value);
        }
    }
    out
}

fn main() {
    let scale = std::env::var("BENCH_FOLD_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(FOLD_SCALE);
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| {
        // `cargo run -p` keeps CWD at the invocation site; anchor the
        // record to the workspace root via the manifest dir instead.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string()
    });
    let path = format!("{dir}/BENCH_fold.json");

    let current = medians(scale);
    let update = std::env::var("BENCH_FOLD_UPDATE").is_ok_and(|v| v == "1");
    // lint:allow(D13) bench baselines live outside the simulation's durability domain
    let baseline_text = std::fs::read_to_string(&path).ok();

    if update || baseline_text.is_none() {
        let why = if update {
            "refresh requested"
        } else {
            "no baseline"
        };
        // lint:allow(D6, D13) the regression gate's whole job is maintaining this record
        std::fs::write(&path, render_json(scale, &current)).expect("write BENCH_fold.json");
        eprintln!("fold bench: wrote baseline {path} ({why})");
        for (entry, value) in &current {
            eprintln!("fold bench: {entry:<16} {value:>10}  (baseline)");
        }
        return;
    }

    let baseline = parse_baseline(&baseline_text.unwrap_or_default());
    let mut failures = Vec::new();
    for (entry, &base) in &baseline {
        let Some(&now) = current.get(entry) else {
            failures.push(format!(
                "entry {entry:?} present in baseline but not in this run"
            ));
            continue;
        };
        let gated = base >= NOISE_FLOOR;
        let limit = base + base * REGRESSION_PCT / 100;
        let verdict = if !gated {
            "ungated (noise floor)"
        } else if now > limit {
            failures.push(format!(
                "entry {entry:?} regressed: {now} vs baseline {base} (limit {limit})"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!("fold bench: {entry:<16} {now:>10}  baseline {base:>10}  {verdict}");
    }
    for entry in current.keys().filter(|e| !baseline.contains_key(*e)) {
        eprintln!("fold bench: {entry:<16} (new entry, not in baseline — not gated)");
    }

    if failures.is_empty() {
        eprintln!("fold bench: all entries within {REGRESSION_PCT}% of baseline");
    } else {
        for f in &failures {
            eprintln!("fold bench: FAIL: {f}");
        }
        eprintln!(
            "fold bench: refresh with BENCH_FOLD_UPDATE=1 cargo run --release -p chatlens-bench --bin fold \
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
        let entries: BTreeMap<String, u64> = [
            ("batch_report".to_string(), 123_456),
            ("state_peak_bytes".to_string(), 7),
        ]
        .into_iter()
        .collect();
        let json = render_json(0.02, &entries);
        assert_eq!(parse_baseline(&json), entries);
    }

    #[test]
    fn foreign_lines_do_not_parse_as_entries() {
        let parsed = parse_baseline("{\n \"bench\": \"fold\",\n \"scale\": 0.02\n}\n");
        assert!(parsed.is_empty());
    }
}
