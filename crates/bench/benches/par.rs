//! Timing record for the deterministic parallel runtime (`simnet::par`).
//!
//! This harness emits a machine-readable `BENCH_par.json` in the
//! workspace root (override the directory with `BENCH_OUT_DIR`): one
//! record per (stage, thread count) with wall-clock micros from
//! `simnet::metrics`, plus the speedup over the serial run.
//! CI consumes it; humans get the same numbers on stderr.

use chatlens_analysis::{topics, LdaConfig, LdaModel};
use chatlens_core::{run_study, run_study_with, CampaignConfig, Dataset};
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::metrics::Metrics;
use chatlens_simnet::par::Pool;
use chatlens_workload::{ScenarioConfig, Vocabulary};
use std::fmt::Write as _;

/// The campaign scale: 1% of the paper (a full campaign at this scale
/// runs in about a second in release mode).
const BENCH_SCALE: f64 = 0.01;

/// One timed measurement, destined for the JSON record.
struct Sample {
    stage: &'static str,
    threads: usize,
    micros: u64,
}

/// Median-of-3 wall-clock for `f`, recorded through `Metrics::time_stage`
/// so the benches exercise the same timing path as the campaign.
fn timed<R>(stage: &'static str, threads: usize, mut f: impl FnMut() -> R) -> Sample {
    let mut runs = Vec::new();
    for i in 0..3 {
        let mut m = Metrics::new();
        let name = format!("{stage}.r{i}");
        m.time_stage(&name, &mut f);
        runs.push(m.stage_micros(&name));
    }
    runs.sort_unstable();
    Sample {
        stage,
        threads,
        micros: runs[1],
    }
}

fn lda_corpus(ds: &Dataset) -> Vec<Vec<u16>> {
    let vocab = Vocabulary::build();
    topics::english_corpus(ds, PlatformKind::Telegram, &vocab)
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let thread_counts: &[usize] = if cores >= 4 { &[1, 2, 4] } else { &[1, 2] };
    let mut samples = Vec::new();

    // Raw pool throughput: a compute-bound par_map over a large input.
    let items: Vec<u64> = (0..200_000u64).collect();
    for &t in thread_counts {
        let pool = Pool::new(t);
        samples.push(timed("par_map", t, || {
            pool.par_map(&items, |&x| {
                let mut acc = x;
                for _ in 0..64 {
                    acc = acc.wrapping_mul(6364136223846793005).rotate_left(13);
                }
                acc
            })
        }));
    }

    // The LDA stage on the bench-scale campaign corpus — the acceptance
    // path for the parallel runtime.
    let docs = lda_corpus(&run_study(ScenarioConfig::at_scale(BENCH_SCALE)));
    let vocab_len = docs
        .iter()
        .flatten()
        .map(|&w| w as usize + 1)
        .max()
        .unwrap_or(1);
    for &t in thread_counts {
        samples.push(timed("lda", t, || {
            LdaModel::fit(
                &docs,
                vocab_len,
                LdaConfig {
                    k: 8,
                    iterations: 10,
                    seed: 7,
                    threads: t,
                    ..LdaConfig::default()
                },
            )
        }));
    }

    // Whole campaign at bench scale, serial vs max threads.
    for &t in thread_counts {
        samples.push(timed("campaign", t, || {
            run_study_with(
                ScenarioConfig::at_scale(BENCH_SCALE),
                CampaignConfig {
                    threads: t,
                    ..CampaignConfig::default()
                },
            )
        }));
    }

    // Render the JSON record by hand (no format crate in the offline set).
    let mut json = String::from("{\n  \"bench\": \"par\",\n  \"cores\": ");
    let _ = write!(json, "{cores},\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let serial = samples
            .iter()
            .find(|o| o.stage == s.stage && o.threads == 1)
            .map_or(s.micros, |o| o.micros);
        let speedup = serial as f64 / s.micros.max(1) as f64;
        let _ = writeln!(
            json,
            "    {{\"stage\": \"{}\", \"threads\": {}, \"micros\": {}, \"speedup\": {:.3}}}{}",
            s.stage,
            s.threads,
            s.micros,
            speedup,
            if i + 1 == samples.len() { "" } else { "," }
        );
        eprintln!(
            "par bench: {:<8} threads={} {:>10} us  ({:.2}x)",
            s.stage, s.threads, s.micros, speedup
        );
    }
    json.push_str("  ]\n}\n");

    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| {
        // `cargo bench` runs with CWD = the bench package; the record
        // belongs in the workspace root two levels up.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string()
    });
    let path = format!("{dir}/BENCH_par.json");
    std::fs::write(&path, json).expect("write BENCH_par.json");
    eprintln!("par bench: wrote {path}");
}
