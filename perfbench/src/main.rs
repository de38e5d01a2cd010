//! The chatlens benchmark. One workload per invocation:
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|crawl|durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! run from the repository root. It builds the release `repro` binary,
//! then:
//!
//! * `--trace 0` runs the workload's `repro` legs back to back for
//!   `--seconds` seconds and reports the end-to-end metrics, each the
//!   median over the passes;
//! * `--trace 1` alternates untraced passes with traced ones, which call
//!   the same public entry points in-process and time each call, and
//!   reports the per-layer metrics.
//!
//! Every pass's output is checked; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The timed
//! world is fixed (`--world-seed`, default 20200408) so that passes and
//! runs measure the same work; `--seed` picks a second, small probe world
//! whose outputs each run checks against its own oracle (thread
//! invariance, resume equals uninterrupted).
//!
//! See README.md in this directory for the metric → layer → workload map.

mod artifacts;
mod proc;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use workload::{Kind, Outcome, Reference, PROBE_SCALE};

/// The paper's world seed, and the one the timed runs use by default.
const DEFAULT_WORLD_SEED: u64 = 20_200_408;
/// `setup_s` is the median of in-process `Ecosystem::build` calls: this
/// many before the first pass, then one after every pass, so that the
/// builds are spread over the whole run.
const SETUP_BUILDS: usize = 3;
/// Thread count the test suite's CI matrix also runs at; reported as
/// unmeasured when the machine has fewer cores.
const CI_THREADS: usize = 8;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    world_seed: u64,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper|crawl|durable> --seed <n> --seconds <s> \
         --trace <0|1> [--world-seed <n>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut world_seed = DEFAULT_WORLD_SEED;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let v = value();
                kind = Some(Kind::parse(&v).unwrap_or_else(|| usage(&format!("no workload {v}"))));
            }
            "--seed" => seed = value().parse().ok(),
            "--seconds" => seconds = value().parse().ok(),
            "--trace" => trace = value() == "1",
            "--world-seed" => {
                world_seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--world-seed <u64>"))
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed <u64> is required")),
        seconds: seconds
            .filter(|s: &f64| *s > 0.0)
            .unwrap_or_else(|| usage("--seconds <positive number> is required")),
        trace,
        world_seed,
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Passes checked and passes that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("# FAILED {what}: {}", detail());
        }
    }
}

/// What both modes share: where the program and the scratch space are.
struct Env {
    repro: PathBuf,
    work: PathBuf,
    nproc: usize,
}

fn main() {
    let args = parse_args();
    let root = std::env::current_dir().unwrap_or_else(|e| fail(&format!("no working dir: {e}")));
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/repro.rs").is_file() {
        fail("run from the chatlens repository root: no Cargo.toml or src/bin/repro.rs here");
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = root.join(target);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "repro"])
        .current_dir(&root)
        .status();
    if !matches!(built, Ok(s) if s.success()) {
        fail("building the release repro binary failed");
    }
    let env = Env {
        repro: target.join("release").join("repro"),
        work: target.join("perfbench-work").join(format!(
            "{}-{}",
            args.kind.name(),
            std::process::id()
        )),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    eprintln!(
        "# perfbench {} — world seed {}, scale {}, probe seed {}, nproc {}",
        args.kind.name(),
        args.world_seed,
        args.kind.scale(),
        args.seed,
        env.nproc
    );
    let line = if args.trace {
        trace_run(&args, &env, &target)
    } else {
        timed_run(&args, &env)
    };
    let _ = std::fs::remove_dir_all(&env.work);
    println!("{line}");
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

/// The reference the timed world's output must equal: the recorded one
/// when `references.tsv` has it, otherwise the oracle run live. The first
/// timed pass then prints the line to add to `references.tsv`.
fn reference(args: &Args, env: &Env, tally: &mut Tally) -> Reference {
    let scale = args.kind.scale();
    if let Some(r) = workload::recorded(args.kind, args.world_seed, scale) {
        return r;
    }
    eprintln!("# no recorded reference for this world; running the oracle");
    let dir = env.work.join("oracle");
    let legs = args
        .kind
        .oracle_legs(scale, args.world_seed, env.nproc, &dir.join("out"));
    let o = workload::run_legs(args.kind, &env.repro, &legs, &dir);
    tally.check("oracle", o.error.is_none(), || {
        o.error.clone().unwrap_or_default()
    });
    Reference {
        digest: o.digest,
        records: o.records,
        resume_day: None,
        recorded: false,
    }
}

/// Check the seed-derived probe world: the workload's legs at `nproc`
/// against its oracle legs.
fn probe(args: &Args, env: &Env, tally: &mut Tally) {
    let dir = env.work.join("probe");
    let out = dir.join("out");
    let legs = args.kind.legs(PROBE_SCALE, args.seed, env.nproc, &out);
    let o = workload::run_legs(args.kind, &env.repro, &legs, &dir);
    let oracle_dir = env.work.join("probe-oracle");
    let oracle_legs =
        args.kind
            .oracle_legs(PROBE_SCALE, args.seed, env.nproc, &oracle_dir.join("out"));
    let r = workload::run_legs(args.kind, &env.repro, &oracle_legs, &oracle_dir);
    let ok =
        o.error.is_none() && r.error.is_none() && o.digest == r.digest && o.records == r.records;
    tally.check("probe world", ok, || {
        format!(
            "seed {}: {:?} / oracle {:?}, digest {} vs {}",
            args.seed, o.error, r.error, o.digest, r.digest
        )
    });
}

/// One timed pass over the workload's legs, checked against `reference`.
fn timed_pass(
    args: &Args,
    env: &Env,
    reference: &Reference,
    tally: &mut Tally,
    i: usize,
) -> Outcome {
    let dir = env.work.join("timed");
    let legs = args.kind.legs(
        args.kind.scale(),
        args.world_seed,
        env.nproc,
        &dir.join("out"),
    );
    let o = workload::run_legs(args.kind, &env.repro, &legs, &dir);
    tally.check(&format!("pass {i}"), o.matches(reference), || {
        format!(
            "{:?}, digest {} (want {}), records {} (want {}), resumed from day {:?} (want {:?})",
            o.error,
            o.digest,
            reference.digest,
            o.records,
            reference.records,
            o.resume_day,
            reference.resume_day
        )
    });
    if i == 0 && !reference.recorded && o.matches(reference) {
        eprintln!(
            "# references.tsv line for this world: {}",
            workload::reference_line(args.kind, args.world_seed, args.kind.scale(), reference, &o)
        );
    }
    let legs: Vec<String> = o.legs.iter().map(|l| format!("{:.3} s", l.0)).collect();
    eprintln!(
        "# pass {i}: legs [{}] at threads {} (nproc {}), peak rss {:.1} MB, disk {} B",
        legs.join(", "),
        env.nproc,
        env.nproc,
        o.peak_rss_mb(),
        o.disk_bytes
    );
    o
}

/// Wall time of one in-process ecosystem build of the workload's
/// scenario.
fn build_s(scen: &chatlens::ScenarioConfig) -> f64 {
    let t0 = Instant::now();
    let eco = std::hint::black_box(chatlens::Ecosystem::build(scen.clone()));
    let s = t0.elapsed().as_secs_f64();
    drop(eco);
    s
}

/// Whether another pass still fits in `seconds`: passes stop once the
/// time left is under half a pass, so a run measures about `seconds`.
fn another_pass(start: Instant, seconds: f64, last_pass_s: f64) -> bool {
    start.elapsed().as_secs_f64() + last_pass_s / 2.0 < seconds
}

fn timed_run(args: &Args, env: &Env) -> String {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let scen = traced::scenario(args.kind.scale(), args.world_seed);
    let mut builds: Vec<f64> = (0..SETUP_BUILDS).map(|_| build_s(&scen)).collect();
    let reference = reference(args, env, &mut tally);
    probe(args, env, &mut tally);
    eprintln!(
        "# set-up builds and the probe world took {:.2} s",
        t0.elapsed().as_secs_f64()
    );

    let start = Instant::now();
    let mut passes: Vec<Outcome> = Vec::new();
    while passes
        .last()
        .is_none_or(|p| another_pass(start, args.seconds, p.wall_s() + builds[0]))
    {
        passes.push(timed_pass(args, env, &reference, &mut tally, passes.len()));
        builds.push(build_s(&scen));
    }
    eprintln!("# set-up: {} ecosystem builds", builds.len());
    let setup = median(&mut builds);
    let med = |f: &dyn Fn(&Outcome) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
    let wall = med(&|o| o.wall_s());
    let metrics = [
        ("wall_s", wall, "s"),
        ("setup_s", setup, "s"),
        ("records_per_s", reference.records as f64 / wall, "1/s"),
        (
            "resume_s",
            med(&|o| o.legs.last().map_or(0.0, |l| l.0)),
            "s",
        ),
        ("peak_rss_mb", med(&|o| o.peak_rss_mb()), "MB"),
        ("disk_mb", med(&|o| o.disk_bytes as f64) / 1e6, "MB"),
    ];
    result_line(&tally, metrics.iter().map(|&(n, v, u)| (n, v, u)))
}

/// Per-layer metrics in report order, with their units.
const PER_LAYER: [(&str, &str); 63] = [
    ("workload.build_s", "s"),
    ("workload.tweets", "count"),
    ("workload.groups", "count"),
    ("core.campaign_s", "s"),
    ("core.campaign_self_s", "s"),
    ("core.search_s", "s"),
    ("core.stream_s", "s"),
    ("core.sample_s", "s"),
    ("core.monitor_s", "s"),
    ("core.join_s", "s"),
    ("core.collect_s", "s"),
    ("core.backfill_s", "s"),
    ("core.search_rounds", "count"),
    ("core.stream_drains", "count"),
    ("core.monitor_rounds", "count"),
    ("core.discovery.tweets", "count"),
    ("core.discovery.groups", "count"),
    ("core.discovery.failed_requests", "count"),
    ("core.discovery.unrecovered_windows", "count"),
    ("core.monitor.gap_days", "count"),
    ("core.join.joined", "count"),
    ("core.join.failed_fetches", "count"),
    ("core.quarantine.entries", "count"),
    ("core.quarantine.catch_ratio", "ratio"),
    ("transport.attempts", "count"),
    ("transport.corrupted", "count"),
    ("transport.breaker_opened", "count"),
    ("transport.breaker_fast_fails", "count"),
    ("transport.corrupt_ratio", "ratio"),
    ("par.call_us", "us"),
    ("par.speedup", "x"),
    ("par.efficiency", "ratio"),
    ("par.nproc", "count"),
    ("analysis.discovery_s", "s"),
    ("analysis.content_s", "s"),
    ("analysis.membership_s", "s"),
    ("analysis.lifecycle_s", "s"),
    ("analysis.messages_s", "s"),
    ("analysis.pii_s", "s"),
    ("analysis.topics_s", "s"),
    ("analysis.stats_s", "s"),
    ("analysis.artifacts_s", "s"),
    ("analysis.lda_fit_s", "s"),
    ("analysis.lda_tokens", "count"),
    ("report.campaign_report_s", "s"),
    ("report.fidelity_ok", "count"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.recover_s", "s"),
    ("checkpoint.snapshot_bytes", "bytes"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.snapshots_skipped", "count"),
    ("checkpoint.chain_invalid", "count"),
    ("budget.floor_bytes", "bytes"),
    ("budget.resident_peak_bytes", "bytes"),
    ("budget.spilled_bytes", "bytes"),
    ("budget.evictions", "count"),
    ("budget.faults", "count"),
    ("budget.torn_detected", "count"),
    ("trace.total_s", "s"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.peak_rss_mb", "MB"),
];

fn trace_run(args: &Args, env: &Env, target: &Path) -> String {
    let mut tally = Tally::default();
    let reference = reference(args, env, &mut tally);
    let untraced = timed_pass(args, env, &reference, &mut tally, 0);
    let fidelity = fidelity_ok(&untraced.stdout);
    // What the traced passes must reproduce: the CSV series on paper, the
    // report elsewhere.
    let cli_out = env.work.join("timed/out");
    let cli_output = match args.kind {
        Kind::Paper => workload::csv_bytes(&cli_out.join("csv")),
        Kind::Crawl | Kind::Durable => std::fs::read(cli_out.join("report")).unwrap_or_default(),
    };

    // Traced and untraced passes alternate until `--seconds` have gone by,
    // so that `trace.overhead_frac` compares medians over the same stretch
    // of time; the medians are kept.
    let scale = args.kind.scale();
    let start = Instant::now();
    let mut passes: Vec<traced::Pass> = Vec::new();
    let mut untraced_s = vec![untraced.wall_s()];
    while passes
        .last()
        .is_none_or(|p| another_pass(start, args.seconds, p.tracer.total_s + untraced.wall_s()))
    {
        if !passes.is_empty() {
            let i = untraced_s.len();
            untraced_s.push(timed_pass(args, env, &reference, &mut tally, i).wall_s());
        }
        match traced::pass(
            args.kind,
            scale,
            args.world_seed,
            env.nproc,
            &env.work.join("traced"),
        ) {
            Ok(p) => {
                tally.check("traced pass", p.output == cli_output, || {
                    "in-process output differs from the repro run's".into()
                });
                passes.push(p);
            }
            Err(e) => {
                tally.check("traced pass", false, || e);
                break;
            }
        }
    }
    let mut layer: BTreeMap<&str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for (name, value) in layer.iter_mut() {
        let mut v: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.metrics.get(name).copied())
            .collect();
        if !v.is_empty() {
            *value = median(&mut v);
        }
    }
    let mut totals: Vec<f64> = passes.iter().map(|p| p.tracer.total_s).collect();
    let mut residuals: Vec<f64> = passes
        .iter()
        .map(|p| {
            let covered: f64 = p.tracer.spans.iter().map(|s| s.dur_s).sum();
            1.0 - covered / p.tracer.total_s
        })
        .collect();
    let mut legs: Vec<f64> = passes.iter().map(|p| p.tracer.leg_s()).collect();
    let untraced_wall = median(&mut untraced_s);
    layer.insert("trace.total_s", median(&mut totals));
    layer.insert("trace.residual_frac", median(&mut residuals));
    layer.insert(
        "trace.overhead_frac",
        median(&mut legs) / untraced_wall - 1.0,
    );
    layer.insert("report.fidelity_ok", fidelity.unwrap_or(0) as f64);
    if args.kind == Kind::Paper {
        tally.check("scorecard", fidelity.is_some(), || {
            "no scorecard line".into()
        });
    }

    // Parallelism: pool call cost, and the campaign at one thread against
    // the campaign at nproc, back to back, which must give the same report.
    layer.insert("par.nproc", env.nproc as f64);
    layer.insert("par.call_us", traced::par_call_us(env.nproc));
    let (serial_s, serial_report) = traced::campaign_at(args.kind, scale, args.world_seed, 1);
    let (parallel_s, parallel_report) =
        traced::campaign_at(args.kind, scale, args.world_seed, env.nproc);
    tally.check(
        "thread invariance",
        serial_report == parallel_report,
        || "campaign report at 1 thread differs from the one at nproc".into(),
    );
    let speedup = serial_s / parallel_s;
    layer.insert("par.speedup", speedup);
    layer.insert("par.efficiency", speedup / env.nproc as f64);
    layer.insert("trace.peak_rss_mb", proc::self_peak_rss_mb());

    if let Some(p) = passes.last() {
        write_trace(args, env, target, p, untraced_wall, serial_s, parallel_s);
    }
    result_line(&tally, PER_LAYER.iter().map(|&(n, u)| (n, layer[n], u)))
}

/// "N of 100 comparisons within tolerance" from `repro all`'s scorecard.
fn fidelity_ok(stdout: &[u8]) -> Option<u64> {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| l.ends_with("comparisons within tolerance"))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Write the last traced pass's spans, with the thread count and nproc
/// beside every timing, to `<target>/perfbench/trace-<workload>.json`.
fn write_trace(
    args: &Args,
    env: &Env,
    target: &Path,
    pass: &traced::Pass,
    wall: f64,
    serial: f64,
    parallel: f64,
) {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"workload\":\"{}\",\"world_seed\":{},\"scale\":{},\"nproc\":{},\"untraced_wall_s\":{wall},\"spans\":[",
        args.kind.name(),
        args.world_seed,
        args.kind.scale(),
        env.nproc
    ));
    for (i, sp) in pass.tracer.spans.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&format!(
            "  {{\"name\":\"{}\",\"start_s\":{},\"dur_s\":{},\"threads\":{},\"nproc\":{},\"leg\":{}}}",
            sp.name, sp.start_s, sp.dur_s, sp.threads, env.nproc, sp.leg
        ));
    }
    s.push_str("\n],\"campaign_by_threads\":[");
    let mut counts = vec![1, env.nproc, CI_THREADS];
    counts.sort_unstable();
    counts.dedup();
    for (i, t) in counts.iter().enumerate() {
        let time = match *t {
            1 => serial.to_string(),
            t if t == env.nproc => parallel.to_string(),
            _ => "null".to_string(),
        };
        let status = if *t > env.nproc {
            "unmeasured: above nproc"
        } else if time == "null" {
            "not run"
        } else {
            "measured"
        };
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&format!(
            "  {{\"threads\":{t},\"nproc\":{},\"wall_s\":{time},\"status\":\"{status}\"}}",
            env.nproc
        ));
    }
    s.push_str("\n]}\n");
    let dir = target.join("perfbench");
    let path = dir.join(format!("trace-{}.json", args.kind.name()));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, s)) {
        Ok(()) => eprintln!("# spans written to {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
    for sp in &pass.tracer.spans {
        eprintln!(
            "#   {:<24} {:>9.4} s  threads {} (nproc {}){}",
            sp.name,
            sp.dur_s,
            sp.threads,
            env.nproc,
            if sp.leg { "" } else { "  [not a leg]" }
        );
    }
}

/// The result object, as the last line of stdout.
fn result_line<'a>(
    tally: &Tally,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
