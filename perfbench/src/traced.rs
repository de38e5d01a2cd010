//! The traced run: the workload's legs called in-process through the same
//! public entry points `repro` dispatches to, with the same scenario and
//! campaign configuration, each call timed as a span.
//!
//! Spans live in memory and are written out once at the end. Nothing is
//! traced inside the program: a layer's busy time is either a span around
//! one of its public calls or, for the campaign stages, the program's own
//! `stage.*.micros` counters read from the finished dataset.

use crate::artifacts;
use crate::workload::{self, Kind, HALT_DAY};
use chatlens::analysis::pipeline::report_lda_config;
use chatlens::analysis::{self, topics, LdaModel};
use chatlens::checkpoint::{chain, decode_snapshot, encode_snapshot, RealVfs};
use chatlens::core::study::run_study_on;
use chatlens::core::{
    recover_latest_state, resume_study_budgeted, run_study_days_budgeted, BudgetLimit,
    BudgetPolicy, CampaignConfig, CampaignState, CheckpointPolicy, Dataset,
};
use chatlens::platforms::id::PlatformKind;
use chatlens::simnet::fault::{CorruptionProfile, DiskFaultProfile, FaultProfile};
use chatlens::simnet::metrics::keys;
use chatlens::simnet::par::Pool;
use chatlens::workload::{Ecosystem, ScenarioConfig, Vocabulary};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub dur_s: f64,
    /// Worker threads the call ran with.
    pub threads: usize,
    /// Whether the call is one of the workload's own legs, as opposed to
    /// a measurement the benchmark adds (the oracle campaign, the
    /// snapshot round trip, the chain verification).
    pub leg: bool,
}

/// Spans of one traced pass, all top-level and back to back.
pub struct Tracer {
    t0: Instant,
    threads: usize,
    pub spans: Vec<Span>,
    /// Wall time of the whole pass, set when it ends.
    pub total_s: f64,
}

impl Tracer {
    fn new(threads: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            threads,
            spans: Vec::new(),
            total_s: 0.0,
        }
    }

    pub fn span<R>(&mut self, name: &'static str, leg: bool, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            start_s: (start - self.t0).as_secs_f64(),
            dur_s: start.elapsed().as_secs_f64(),
            threads: self.threads,
            leg,
        });
        out
    }

    fn time(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .sum()
    }

    fn time_prefixed(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur_s)
            .sum()
    }

    pub fn leg_s(&self) -> f64 {
        self.spans.iter().filter(|s| s.leg).map(|s| s.dur_s).sum()
    }
}

/// The scenario `repro --scale <scale> --seed <world_seed>` builds.
pub fn scenario(scale: f64, world_seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::at_scale(scale);
    config.seed = world_seed;
    config
}

/// The campaign configuration of the workload's legs at `threads`.
pub fn campaign(kind: Kind, threads: usize) -> CampaignConfig {
    let (profile, corruption) = match kind {
        Kind::Paper | Kind::Crawl => (FaultProfile::Calm, CorruptionProfile::Calm),
        Kind::Durable => (FaultProfile::Bursty, CorruptionProfile::Hostile),
    };
    CampaignConfig {
        threads,
        profile,
        corruption,
        ..CampaignConfig::default()
    }
}

/// The analysis modules timed around their public `fragment(ds, pool)`,
/// as `(span, metric, fragment)`.
type Fragment = fn(&Dataset, &Pool) -> String;
const FRAGMENTS: [(&str, &str, Fragment); 8] = [
    (
        "analysis.discovery",
        "analysis.discovery_s",
        analysis::discovery::fragment,
    ),
    (
        "analysis.content",
        "analysis.content_s",
        analysis::content::fragment,
    ),
    (
        "analysis.membership",
        "analysis.membership_s",
        analysis::membership::fragment,
    ),
    (
        "analysis.lifecycle",
        "analysis.lifecycle_s",
        analysis::lifecycle::fragment,
    ),
    (
        "analysis.messages",
        "analysis.messages_s",
        analysis::messages::fragment,
    ),
    ("analysis.pii", "analysis.pii_s", analysis::pii::fragment),
    (
        "analysis.topics",
        "analysis.topics_s",
        analysis::topics::fragment,
    ),
    (
        "analysis.stats",
        "analysis.stats_s",
        analysis::stats::fragment,
    ),
];

/// Campaign stages, as `(metric, stage timer)`.
const STAGES: [(&str, &str); 7] = [
    ("core.search_s", keys::STAGE_SEARCH),
    ("core.stream_s", keys::STAGE_STREAM),
    ("core.sample_s", keys::STAGE_SAMPLE),
    ("core.monitor_s", keys::STAGE_MONITOR),
    ("core.join_s", keys::STAGE_JOIN),
    ("core.collect_s", keys::STAGE_COLLECT),
    ("core.backfill_s", keys::STAGE_BACKFILL),
];

/// Campaign counters, as `(metric, counter)`.
const COUNTERS: [(&str, &str); 15] = [
    ("core.search_rounds", keys::CAMPAIGN_SEARCH_ROUNDS),
    ("core.stream_drains", keys::CAMPAIGN_STREAM_DRAINS),
    ("core.monitor_rounds", keys::CAMPAIGN_MONITOR_ROUNDS),
    ("core.discovery.tweets", keys::DISCOVERY_TWEETS_COLLECTED),
    ("core.discovery.groups", keys::DISCOVERY_GROUPS_DISCOVERED),
    (
        "core.discovery.failed_requests",
        keys::DISCOVERY_FAILED_REQUESTS,
    ),
    (
        "core.discovery.unrecovered_windows",
        keys::DISCOVERY_UNRECOVERED_WINDOWS,
    ),
    ("core.monitor.gap_days", keys::MONITOR_GAP_DAYS),
    ("core.join.joined", keys::JOIN_JOINED_GROUPS),
    ("core.join.failed_fetches", keys::JOIN_FAILED_FETCHES),
    ("core.quarantine.entries", keys::QUARANTINE_ENTRIES),
    ("transport.attempts", keys::TRANSPORT_ATTEMPTS),
    ("transport.corrupted", keys::TRANSPORT_CORRUPTED),
    ("transport.breaker_opened", keys::TRANSPORT_BREAKER_OPENED),
    (
        "transport.breaker_fast_fails",
        keys::TRANSPORT_BREAKER_FAST_FAILS,
    ),
];

/// What one traced pass measured, by per-layer metric name. Layers that
/// do no work in the workload keep the value 0.
pub struct Pass {
    pub tracer: Tracer,
    pub metrics: BTreeMap<&'static str, f64>,
    /// What the untraced run must also produce: the CSV files (see
    /// [`workload::csv_bytes`]) on `paper`, the campaign report elsewhere.
    pub output: Vec<u8>,
}

/// One traced pass of `kind`. `dir` holds what the pass writes: the CSV
/// series, the report, or the durable workload's chain and spill
/// directories.
pub fn pass(
    kind: Kind,
    scale: f64,
    world_seed: u64,
    nproc: usize,
    dir: &Path,
) -> Result<Pass, String> {
    let pool = Pool::new(nproc);
    let scen = scenario(scale, world_seed);
    let camp = campaign(kind, nproc);
    let mut t = Tracer::new(nproc);
    let mut m = BTreeMap::new();
    let durable = kind == Kind::Durable;
    if !durable {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    // The durable legs build their own worlds; this build is measured only.
    let mut eco = t.span("workload.build", !durable, || {
        Ecosystem::build(scen.clone())
    });
    m.insert("workload.tweets", eco.twitter.tweets().len() as f64);
    m.insert(
        "workload.groups",
        eco.metas.iter().map(Vec::len).sum::<usize>() as f64,
    );

    let (ds, resumed) = if durable {
        t.span("workload.drop", false, || drop(eco));
        let resumed = durable_legs(&mut t, &mut m, scen.clone(), camp, dir)?;
        // The uninterrupted run of the same configuration: the oracle the
        // resumed report must equal, and the source of the campaign's
        // stage timings and counters (the budgeted path returns no
        // dataset).
        let mut eco = t.span("oracle.build", false, || Ecosystem::build(scen.clone()));
        let ds = t.span("oracle.campaign", false, || run_study_on(&mut eco, camp));
        t.span("oracle.drop", false, || drop(eco));
        m.insert(
            "core.campaign_s",
            t.time("core.campaign.halt") + t.time("core.campaign.resume"),
        );
        (ds, Some(resumed))
    } else {
        let ds = t.span("core.campaign", true, || run_study_on(&mut eco, camp));
        // `repro` frees the world before it goes on with the dataset.
        t.span("workload.drop", true, || drop(eco));
        m.insert("core.campaign_s", t.time("core.campaign"));
        (ds, None)
    };

    let mut stages = 0.0;
    for (metric, stage) in STAGES {
        let s = ds.metrics.stage_micros(stage) as f64 / 1e6;
        stages += s;
        m.insert(metric, s);
    }
    m.insert("core.campaign_self_s", m["core.campaign_s"] - stages);
    for (metric, counter) in COUNTERS {
        m.insert(metric, ds.metrics.get(counter) as f64);
    }
    m.insert(
        "transport.corrupt_ratio",
        ratio(m["transport.corrupted"], m["transport.attempts"]),
    );
    m.insert(
        "core.quarantine.catch_ratio",
        ratio(m["core.quarantine.entries"], m["transport.corrupted"]),
    );

    let output = if kind == Kind::Paper {
        // `repro all` renders every artifact and writes the CSV series; it
        // never builds the campaign report.
        let csv = dir.join("csv");
        artifacts::repro_all(&mut t, &ds, &pool, nproc, &csv)?;
        m.insert(
            "analysis.artifacts_s",
            t.time_prefixed(artifacts::SPAN_PREFIX),
        );
        // The module fragments and the reference LDA fit are measurements
        // the benchmark adds: `repro all` reaches the same analyses through
        // the artifact calls above.
        for (span, _, fragment) in FRAGMENTS {
            t.span(span, false, || fragment(&ds, &pool));
        }
        let vocab = t.span("analysis.vocabulary", false, Vocabulary::build);
        let mut tokens = 0;
        for platform in PlatformKind::ALL {
            let corpus = t.span("analysis.lda_corpus", false, || {
                topics::english_corpus(&ds, platform, &vocab)
            });
            tokens += corpus.iter().map(Vec::len).sum::<usize>();
            t.span("analysis.lda_fit", false, || {
                LdaModel::fit(&corpus, vocab.len(), report_lda_config())
            });
        }
        for (span, metric, _) in FRAGMENTS {
            m.insert(metric, t.time(span));
        }
        m.insert("analysis.lda_fit_s", t.time("analysis.lda_fit"));
        m.insert("analysis.lda_tokens", tokens as f64);
        workload::csv_bytes(&csv)
    } else {
        // On `crawl` the report is the leg's output, written to a file;
        // on `durable` the resumed leg streamed its own, and this one is
        // the oracle's, which it must equal.
        let report = t.span("report.campaign_report", !durable, || ds.campaign_report());
        m.insert("report.campaign_report_s", t.time("report.campaign_report"));
        match resumed {
            Some(resumed) if resumed != report => {
                return Err("resumed report differs from the uninterrupted run's".into());
            }
            Some(_) => {}
            None => t
                .span("report.write", true, || {
                    std::hint::black_box(ds.totals());
                    std::fs::write(dir.join("report"), &report)
                })
                .map_err(|e| format!("writing the report: {e}"))?,
        }
        report.into_bytes()
    };
    m.insert("workload.build_s", t.time("workload.build"));
    // `repro` frees the dataset when it returns from `main`.
    t.span("core.dataset_drop", !durable, || drop(ds));
    t.total_s = t.t0.elapsed().as_secs_f64();
    Ok(Pass {
        tracer: t,
        metrics: m,
        output,
    })
}

/// The durable legs in-process: halt after [`HALT_DAY`], recover from the
/// damaged chain, round-trip the recovered state through the snapshot
/// codec, resume. Returns the resumed report.
fn durable_legs(
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    scen: ScenarioConfig,
    camp: CampaignConfig,
    dir: &Path,
) -> Result<String, String> {
    let chain_dir = dir.join("chain");
    let spill_dir = dir.join("spill");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(&spill_dir).map_err(|e| format!("{}: {e}", spill_dir.display()))?;
    let policy = CheckpointPolicy {
        disk_fault: DiskFaultProfile::Torn,
        ..CheckpointPolicy::daily(&chain_dir)
    };
    let budget = BudgetPolicy {
        limit: BudgetLimit::Min,
        dir: spill_dir,
        disk_fault: DiskFaultProfile::Torn,
    };

    t.span("core.campaign.halt", true, || {
        run_study_days_budgeted(scen, camp, &policy, &budget, HALT_DAY)
    })
    .map_err(|e| format!("halted leg: {e}"))?;
    let snapshots = std::fs::read_dir(&chain_dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
                .count()
        })
        .unwrap_or(0);
    m.insert("checkpoint.snapshots", snapshots as f64);

    let recovered = t
        .span("checkpoint.recover", true, || {
            recover_latest_state(&policy, camp.seed, None)
        })
        .map_err(|e| format!("chain recovery: {e}"))?;
    m.insert("checkpoint.recover_s", t.time("checkpoint.recover"));
    m.insert(
        "checkpoint.snapshots_skipped",
        recovered.skipped.len() as f64,
    );
    let mut state = recovered
        .state
        .ok_or("no snapshot survived the halted leg")?;
    state.campaign.threads = camp.threads;

    let bytes = t.span("checkpoint.encode", false, || encode_snapshot(&state));
    let decoded = t
        .span("checkpoint.decode", false, || {
            decode_snapshot::<CampaignState>(&bytes)
        })
        .map_err(|e| format!("snapshot round trip: {e}"))?;
    drop(decoded);
    m.insert("checkpoint.encode_s", t.time("checkpoint.encode"));
    m.insert("checkpoint.decode_s", t.time("checkpoint.decode"));
    m.insert("checkpoint.snapshot_bytes", bytes.len() as f64);

    let run = t
        .span("core.campaign.resume", true, || {
            resume_study_budgeted(&state, &budget)
        })
        .map_err(|e| format!("resumed leg: {e}"))?;
    let s = &run.stats;
    m.insert("budget.floor_bytes", s.floor as f64);
    m.insert("budget.resident_peak_bytes", s.resident_peak as f64);
    m.insert("budget.spilled_bytes", s.spilled_bytes as f64);
    m.insert("budget.evictions", s.evictions as f64);
    m.insert("budget.faults", s.faults as f64);
    m.insert("budget.torn_detected", s.torn_detected as f64);

    let entries = t
        .span("checkpoint.verify", false, || {
            chain::verify_chain::<CampaignState>(&mut RealVfs, &chain_dir)
        })
        .map_err(|e| format!("chain verification: {e}"))?;
    m.insert(
        "checkpoint.chain_invalid",
        entries.iter().filter(|e| e.outcome.is_err()).count() as f64,
    );
    Ok(run.report)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Median cost in microseconds of one `Pool::par_map` whose closure does
/// nothing, over `threads` one-item chunks so every call starts its
/// workers.
pub fn par_call_us(threads: usize) -> f64 {
    const CALLS: usize = 200;
    const BATCHES: usize = 9;
    let pool = Pool::new(threads);
    let items: Vec<u32> = (0..threads as u32).collect();
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                std::hint::black_box(pool.par_map_chunked(1, &items, |x| *x));
            }
            t0.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    crate::median(&mut per_call)
}

/// The workload's campaign at `threads` on a freshly built world: its
/// wall time and campaign report.
pub fn campaign_at(kind: Kind, scale: f64, world_seed: u64, threads: usize) -> (f64, String) {
    let mut eco = Ecosystem::build(scenario(scale, world_seed));
    let t0 = Instant::now();
    let ds = run_study_on(&mut eco, campaign(kind, threads));
    (t0.elapsed().as_secs_f64(), ds.campaign_report())
}
