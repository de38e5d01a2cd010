//! Memory-budget regression gate:
//! `cargo run --release -p chatlens-bench --bin mem`.
//!
//! The accounting twin of the hotpath and fold gates. Runs the campaign
//! through the budget accountant at two scales — the bench "paper"
//! stand-in ([`MEM_SCALE`]) and its 10× stand-in — and records, per
//! scale:
//!
//! - `*_resident_peak_bytes` / `*_floor_bytes` — peak and floor of the
//!   accountant's encoded-size ledger under an unreachable ceiling (the
//!   unbounded probe: accounting on, eviction never triggered),
//! - `*_spill_partitions` / `*_spilled_bytes` / `*_faults` — the spill
//!   traffic under a tight ceiling (floor + a quarter of the unbounded
//!   headroom), which forces the eviction path through its paces.
//!
//! Every entry is a **deterministic** function of `(seed, scale)` — byte
//! counts and partition counts, not wall-clock — so a single run
//! suffices and any drift is a real accounting change, not noise.
//! Entries more than [`REGRESSION_PCT`]% above the committed
//! `BENCH_mem.json` baseline fail the run (exit 1).
//!
//! Refresh after an intentional change (mirroring the other gates):
//!
//! ```sh
//! BENCH_MEM_UPDATE=1 cargo run --release -p chatlens-bench --bin mem
//! ```
//!
//! `BENCH_OUT_DIR` relocates the record; `BENCH_MEM_SCALE` overrides the
//! paper stand-in scale (the 10× stand-in always tracks it).

use chatlens_core::budget::{BudgetLimit, BudgetPolicy};
use chatlens_core::{BudgetedRun, Campaign, CampaignConfig};
use chatlens_workload::ScenarioConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Paper stand-in scale — same as the hotpath and fold gates.
const MEM_SCALE: f64 = 0.02;

/// Fail on an entry more than this much above its baseline.
const REGRESSION_PCT: u64 = 25;

/// Fresh scratch directory for one budgeted run's spill files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatlens-bench-mem-{tag}-{}", std::process::id()));
    // lint:allow(D6, D13) bench spill scratch lives outside the simulation's durability domain
    let _ = std::fs::remove_dir_all(&dir);
    // lint:allow(D6, D13) bench spill scratch lives outside the simulation's durability domain
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    dir
}

/// A default campaign under `budget`, run to the end.
fn run_budgeted(
    scenario: ScenarioConfig,
    budget: &BudgetPolicy,
) -> Result<BudgetedRun, chatlens_core::StudyError> {
    let outcome = Campaign::new(CampaignConfig::default())
        .budget(budget)
        .run(scenario)?;
    Ok(outcome.into_budgeted().expect("a budgeted campaign"))
}

/// One scale's entries: the unbounded probe, then a tight-ceiling run.
fn measure(scale: f64, prefix: &str, out: &mut BTreeMap<String, u64>) {
    let scenario = ScenarioConfig::at_scale(scale);

    // Unbounded probe: the accountant meters every store but the ceiling
    // is unreachable, so eviction never fires — this measures the true
    // resident peak the budget must beat.
    let probe_dir = scratch(&format!("{prefix}-probe"));
    let probe = run_budgeted(
        scenario.clone(),
        &BudgetPolicy::new(BudgetLimit::Bytes(u64::MAX), &probe_dir),
    )
    .expect("an unreachable ceiling never refuses");
    assert_eq!(probe.stats.evictions, 0, "nothing evicts under u64::MAX");
    out.insert(
        format!("{prefix}_resident_peak_bytes"),
        probe.stats.resident_peak,
    );
    out.insert(format!("{prefix}_floor_bytes"), probe.stats.floor);

    // Tight ceiling — floor plus half of the unbounded headroom — forces
    // the spill/fault machinery through a realistic workout. (Tighter
    // ceilings run into the warm residency window, which is deliberately
    // not evictable: the accountant refuses instead.)
    let limit = probe.stats.floor + (probe.stats.resident_peak - probe.stats.floor) / 2;
    let spill_dir = scratch(&format!("{prefix}-tight"));
    let run = run_budgeted(
        scenario,
        &BudgetPolicy::new(BudgetLimit::Bytes(limit), &spill_dir),
    )
    .expect("a ceiling above the floor spills, never refuses");
    assert!(run.stats.partitions > 0, "the tight ceiling must spill");
    out.insert(format!("{prefix}_spill_partitions"), run.stats.partitions);
    out.insert(format!("{prefix}_spilled_bytes"), run.stats.spilled_bytes);
    out.insert(format!("{prefix}_faults"), run.stats.faults);

    // lint:allow(D6, D13) bench spill scratch lives outside the simulation's durability domain
    let _ = std::fs::remove_dir_all(&probe_dir);
    // lint:allow(D6, D13) bench spill scratch lives outside the simulation's durability domain
    let _ = std::fs::remove_dir_all(&spill_dir);
}

/// Render the machine-readable record (hand-rolled, mirroring the other
/// gates: the layout doubles as the baseline file format).
fn render_json(scale: f64, entries: &BTreeMap<String, u64>) -> String {
    let mut json = String::from("{\n  \"bench\": \"mem\",\n  \"scale\": ");
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
    let scale = std::env::var("BENCH_MEM_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(MEM_SCALE);
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| {
        // `cargo run -p` keeps CWD at the invocation site; anchor the
        // record to the workspace root via the manifest dir instead.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string()
    });
    let path = format!("{dir}/BENCH_mem.json");

    let mut current = BTreeMap::new();
    measure(scale, "paper", &mut current);
    eprintln!("mem bench: paper stand-in (scale {scale}) done");
    measure(scale * 10.0, "x10", &mut current);
    eprintln!("mem bench: 10x stand-in (scale {}) done", scale * 10.0);

    let update = std::env::var("BENCH_MEM_UPDATE").is_ok_and(|v| v == "1");
    // lint:allow(D13) bench baselines live outside the simulation's durability domain
    let baseline_text = std::fs::read_to_string(&path).ok();

    if update || baseline_text.is_none() {
        let why = if update {
            "refresh requested"
        } else {
            "no baseline"
        };
        // lint:allow(D6, D13) the regression gate's whole job is maintaining this record
        std::fs::write(&path, render_json(scale, &current)).expect("write BENCH_mem.json");
        eprintln!("mem bench: wrote baseline {path} ({why})");
        for (entry, value) in &current {
            eprintln!("mem bench: {entry:<26} {value:>14}  (baseline)");
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
        // Every entry is deterministic — no noise floor, everything gates.
        let limit = base + base * REGRESSION_PCT / 100;
        let verdict = if now > limit {
            failures.push(format!(
                "entry {entry:?} regressed: {now} vs baseline {base} (limit {limit})"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!("mem bench: {entry:<26} {now:>14}  baseline {base:>14}  {verdict}");
    }
    for entry in current.keys().filter(|e| !baseline.contains_key(*e)) {
        eprintln!("mem bench: {entry:<26} (new entry, not in baseline — not gated)");
    }

    if failures.is_empty() {
        eprintln!("mem bench: all entries within {REGRESSION_PCT}% of baseline");
    } else {
        for f in &failures {
            eprintln!("mem bench: FAIL: {f}");
        }
        eprintln!(
            "mem bench: refresh with BENCH_MEM_UPDATE=1 cargo run --release -p chatlens-bench --bin mem \
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
            ("paper_resident_peak_bytes".to_string(), 123_456),
            ("x10_spill_partitions".to_string(), 30),
        ]
        .into_iter()
        .collect();
        let json = render_json(0.02, &entries);
        assert_eq!(parse_baseline(&json), entries);
    }

    #[test]
    fn foreign_lines_do_not_parse_as_entries() {
        let parsed = parse_baseline("{\n \"bench\": \"mem\",\n \"scale\": 0.02\n}\n");
        assert!(parsed.is_empty());
    }
}
