//! The campaign orchestrator: wires discovery, monitoring, and joining to
//! one discrete-event timeline and runs the full 38-day study.
//!
//! Daily rhythm (§3):
//! * every hour at :00 — Search API round (six hosts, paginated);
//! * every hour at :30 — Streaming API drain for the elapsed hour;
//! * daily at 22:40 — 1% sample drain into the control dataset;
//! * daily at 23:10 — monitor round over every known, unrevoked group
//!   (placed late so groups discovered earlier the same day get their
//!   first observation on their discovery day, as in §3.2);
//! * once, on `join_day` at 12:00 — join the sampled groups;
//! * once, at the end of the final day — collect member lists, profiles
//!   and message histories from every joined group.
//!
//! # One entry point
//!
//! [`Campaign`] is the campaign's one entry point. Its builder attaches a
//! [`CheckpointPolicy`], a [`BudgetPolicy`], a [`FoldDriver`] and a halt
//! day in any combination; [`Campaign::run`] starts from day 0 and
//! [`Campaign::resume`] continues from a [`CampaignState`]. Both drive the
//! same day loop and return a [`RunOutcome`] or a typed [`StudyError`].
//! [`run_study`], [`run_study_with`] and [`run_study_on`] are the plain
//! runs that return a bare [`Dataset`].
//!
//! # Checkpointing
//!
//! The campaign advances one study day at a time (an internal `Runner`
//! owns the event loop), and a day boundary is a *quiescent point*: no
//! event is ever scheduled in the final second of a day, so the whole
//! mutable state of the campaign is capturable there as a
//! [`CampaignState`]. A campaign with a checkpoint policy saves one
//! snapshot per interval; [`Campaign::resume`] rebuilds the world from the
//! scenario, replays the delta, and continues — producing a dataset
//! byte-identical to an uninterrupted run. A failing day returns its
//! error before anything is saved, so the chain always ends at the last
//! completed boundary.
//!
//! # Incremental analysis
//!
//! [`Campaign::folds`] threads a [`FoldDriver`] through the day loop:
//! after every completed day the driver hands each registered
//! [`DayFold`](crate::fold::DayFold) a borrowed slice of the day's
//! appends, so analyses maintain compact per-day state instead of
//! replaying history at campaign end. Folded state rides inside the
//! snapshot (`CampaignState::folds`), making incremental runs
//! killable/resumable like batch runs — `tests/fold_parity.rs` proves
//! the final report fragments byte-identical either way.

use crate::audit::AuditViolation;
use crate::budget::{BudgetError, BudgetPolicy, BudgetStats, MemoryBudget};
use crate::dataset::{
    render_campaign_report, Dataset, PlatformSummary, ReportInputs, TweetRollupBuilder,
};
use crate::discovery::Discovery;
use crate::error::CoreError;
use crate::fold::{DayMark, DayParts, FoldDriver};
use crate::joiner::Joiner;
use crate::monitor::Monitor;
use crate::net::Net;
use crate::pii::PiiStore;
use crate::state::{
    CampaignState, DiscoveryState, EngineState, JoinerState, MonitorState, PiiState,
};
use chatlens_checkpoint::{
    chain, save_to_file_with, CheckpointError, FaultVfs, RealVfs, Recovered, Vfs,
};
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::fault::{
    CorruptionProfile, DiskFaultProfile, FaultInjector, FaultProfile, FaultSchedule, OutageSpec,
};
use chatlens_simnet::metrics::{keys, Metrics};
use chatlens_simnet::par::Pool;
use chatlens_simnet::rng::Rng;
use chatlens_simnet::time::{SimDuration, SimTime, StudyWindow};
use chatlens_simnet::Engine;
use chatlens_workload::{Ecosystem, ScenarioConfig};
use std::fmt;
use std::path::PathBuf;

/// Knobs of the collection campaign itself (as opposed to the world it
/// observes). Defaults follow the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Zero-based study day on which groups are joined.
    pub join_day: u32,
    /// Hours between Search API rounds (1 = the paper's hourly cadence).
    pub search_interval_hours: u32,
    /// Days between monitor rounds (1 = daily, §3.2).
    pub monitor_interval_days: u32,
    /// Use the Search API feed (ablation: the paper merges both feeds
    /// because each alone is incomplete).
    pub use_search: bool,
    /// Use the Streaming API feed.
    pub use_stream: bool,
    /// How the join sample is drawn (§3.3 uses uniform sampling).
    pub join_strategy: crate::joiner::JoinStrategy,
    /// Transport fault model for every client.
    pub faults: FaultInjector,
    /// Correlated-failure profile layered over `faults`: `Calm` is the
    /// plain i.i.d. model (bit-identical to the pre-profile behavior),
    /// `Bursty` adds a Gilbert–Elliott bad-state chain, `Outage` also
    /// schedules service blackouts (explicit via `outages`, or the stock
    /// storm when none are given).
    pub profile: FaultProfile,
    /// Explicit per-service outage windows, in [`SERVICE_NAMES`] order
    /// (Twitter, WhatsApp, Telegram, Discord). `None` = no scheduled
    /// outage for that service.
    ///
    /// [`SERVICE_NAMES`]: crate::net::SERVICE_NAMES
    pub outages: [Option<OutageSpec>; 4],
    /// Payload-corruption regime (`repro run --corruption`), orthogonal
    /// to `profile`: faults shape whether responses arrive, corruption
    /// shapes what arrives inside the successful ones. `Calm` draws
    /// nothing from any RNG, so it is bit-identical to older builds.
    pub corruption: CorruptionProfile,
    /// Seed for campaign-side randomness (join sampling, client jitter) —
    /// separate from the world seed so the same world can be re-collected
    /// differently.
    pub seed: u64,
    /// Worker threads for the deterministic parallel runtime
    /// ([`chatlens_simnet::par::Pool`]). Only wall-clock time depends on
    /// this; the dataset is bit-identical at any value.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            join_day: 10,
            search_interval_hours: 1,
            monitor_interval_days: 1,
            use_search: true,
            use_stream: true,
            join_strategy: crate::joiner::JoinStrategy::default(),
            faults: FaultInjector::new(0.01, 0.005),
            profile: FaultProfile::Calm,
            outages: [None; 4],
            corruption: CorruptionProfile::Calm,
            seed: 0xC011_EC70,
            threads: default_threads(),
        }
    }
}

/// Derive the four per-service [`FaultSchedule`]s from the campaign
/// knobs. Used by both the fresh and the restored [`Runner`] paths, so a
/// resumed campaign rebuilds exactly the schedules the snapshot ran
/// under (the schedules themselves are pure config, not state).
///
/// Under [`FaultProfile::Outage`] with no explicit `outages` specs, the
/// stock storm applies: a 3-day WhatsApp blackout starting day 12 and a
/// 2-day Discord credential ban starting day 20.
fn fault_schedules(campaign: &CampaignConfig, start: SimTime) -> [FaultSchedule; 4] {
    let mut specs = campaign.outages;
    if campaign.profile == FaultProfile::Outage && specs.iter().all(Option::is_none) {
        specs[1] = Some(OutageSpec {
            start_day: 12,
            days: 3,
            ban: false,
        });
        specs[3] = Some(OutageSpec {
            start_day: 20,
            days: 2,
            ban: true,
        });
    }
    specs.map(|spec| FaultSchedule {
        base: campaign.faults,
        burst: campaign.profile.burst(),
        outages: spec.iter().map(|s| s.window(start)).collect(),
    })
}

/// Default worker-thread count: 1, unless overridden by the
/// `CHATLENS_THREADS` environment variable. Because the parallel runtime
/// is deterministic, CI runs the whole test suite under
/// `CHATLENS_THREADS=8` and every exact-value assertion must still hold.
fn default_threads() -> usize {
    std::env::var("CHATLENS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Campaign events on the virtual timeline. Public because snapshots
/// persist the pending event queue (see [`crate::state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignEvent {
    /// Hourly Search API round over the six query hosts.
    Search,
    /// Half-hourly Streaming API drain.
    StreamDrain,
    /// Daily 1%-sample drain into the control dataset.
    SampleDrain,
    /// Daily monitor round; carries the zero-based study day.
    Monitor {
        /// Zero-based study day of this round.
        day: u32,
    },
    /// The one-time join phase on `join_day`.
    Join,
    /// The end-of-study collection pass over joined groups.
    Collect,
    /// Daily gap-aware backfill: retry queued stream/sample windows and
    /// the day's failed monitor fetches; carries the zero-based study day.
    Backfill {
        /// Zero-based study day of this round.
        day: u32,
    },
}

/// When and where to write snapshots during a checkpointed run.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory snapshots are written into (created on first save).
    pub dir: PathBuf,
    /// Save every N completed study days; `0` disables interval saves.
    pub every_days: u32,
    /// Which storage fault regime snapshot I/O runs under. `Calm` (the
    /// default) is the real filesystem; `Flaky`/`Torn` route saves and
    /// loads through a deterministic [`FaultVfs`] whose injected damage
    /// the chain-recovery resume path must survive.
    pub disk_fault: DiskFaultProfile,
}

impl CheckpointPolicy {
    /// Save into `dir` after every completed day.
    pub fn daily(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every_days: 1,
            disk_fault: DiskFaultProfile::Calm,
        }
    }

    /// Path of the snapshot written after `day` completed days.
    pub fn snapshot_path(&self, day: u32) -> PathBuf {
        self.dir.join(format!("day{day:03}.ckpt"))
    }

    /// The filesystem snapshot I/O goes through under this policy: the
    /// real one under `Calm`, a deterministic fault injector seeded from
    /// the campaign seed (via the registered `("checkpoint", "disk")`
    /// stream) otherwise.
    pub fn vfs(&self, seed: u64) -> Box<dyn Vfs> {
        match self.disk_fault {
            DiskFaultProfile::Calm => Box::new(RealVfs),
            profile => Box::new(FaultVfs::new(seed, profile.rates())),
        }
    }
}

/// Run the full study over a freshly built ecosystem with default
/// campaign settings.
///
/// # Panics
/// As [`run_study_on`].
pub fn run_study(scenario: ScenarioConfig) -> Dataset {
    run_study_with(scenario, CampaignConfig::default())
}

/// Run the full study with explicit campaign settings. Returns the
/// assembled [`Dataset`].
///
/// # Panics
/// As [`run_study_on`].
pub fn run_study_with(scenario: ScenarioConfig, campaign: CampaignConfig) -> Dataset {
    let mut eco = Ecosystem::build(scenario);
    run_study_on(&mut eco, campaign)
}

/// Run the campaign against an existing ecosystem (used to re-collect
/// the same world under different settings; the ecosystem's
/// materialized histories are deterministic per group, so re-use is
/// safe). The benchmark harness calls this function by name.
///
/// # Panics
/// Panics if a campaign stage fails. The plain wrappers return a bare
/// [`Dataset`], so this is the one point where a [`StudyError`] becomes a
/// panic; [`Campaign::run`] returns it as a value.
pub fn run_study_on(eco: &mut Ecosystem, campaign: CampaignConfig) -> Dataset {
    let runner = Runner::new(eco.window, campaign);
    match Campaign::new(campaign).drive(runner, eco) {
        Ok(outcome) => outcome
            .into_dataset()
            .expect("a plain campaign assembles a dataset"),
        Err(e) => panic!("campaign failed: {e}"),
    }
}

/// Run a budgeted, checkpointed campaign and halt cleanly after `days`
/// completed study days. Returns the number of days actually completed.
/// A one-line delegation to [`Campaign`], kept by name because the
/// benchmark harness calls it with this signature.
pub fn run_study_days_budgeted(
    scenario: ScenarioConfig,
    campaign: CampaignConfig,
    policy: &CheckpointPolicy,
    budget: &BudgetPolicy,
    days: u32,
) -> Result<u32, StudyError> {
    let outcome = Campaign::new(campaign)
        .checkpoint(policy)
        .budget(budget)
        .halt_after(days)
        .run(scenario)?;
    Ok(outcome.into_halted().expect("a halting campaign halts").day)
}

/// Resume a budgeted campaign from a snapshot and run it to completion
/// (no further snapshot saves). A one-line delegation to [`Campaign`],
/// kept by name because the benchmark harness calls it with this
/// signature.
pub fn resume_study_budgeted(
    state: &CampaignState,
    budget: &BudgetPolicy,
) -> Result<BudgetedRun, StudyError> {
    let outcome = Campaign::new(state.campaign).budget(budget).resume(state)?;
    Ok(outcome
        .into_budgeted()
        .expect("a budgeted campaign is budgeted"))
}

/// Walk the checkpoint chain in `policy.dir` backwards to the newest
/// valid snapshot (see [`chain::recover_latest`]), persisting every
/// skipped link into the directory's recovery ledger. Snapshot reads go
/// through the policy's (possibly fault-injected) filesystem; the ledger
/// append always goes through the real one, so the fault domain cannot
/// erase its own audit trail. `up_to` bounds the walk ("resume as of day
/// N"); `None` recovers from the newest on-disk evidence. A `Recovered`
/// with `state: None` means no link survived — start fresh.
pub fn recover_latest_state(
    policy: &CheckpointPolicy,
    seed: u64,
    up_to: Option<u32>,
) -> Result<Recovered<CampaignState>, CheckpointError> {
    let mut vfs = policy.vfs(seed);
    let recovered = chain::recover_latest::<CampaignState>(vfs.as_mut(), &policy.dir, up_to)?;
    chain::append_ledger(&policy.dir, &recovered.skipped)?;
    Ok(recovered)
}

/// Why a campaign stopped or refused to start. Every arm is a typed
/// value: no campaign error unwinds the day loop, so a checkpoint chain
/// always ends at the last quiescent day boundary.
#[derive(Debug)]
pub enum StudyError {
    /// Snapshot I/O failed under a non-tolerant disk-fault profile.
    Checkpoint(CheckpointError),
    /// The memory accountant refused: ceiling below the floor,
    /// un-evictable working set over the ceiling, or damaged spill data.
    Budget(BudgetError),
    /// A campaign stage (search, stream, monitor, join, collect,
    /// backfill) failed.
    Core(CoreError),
    /// A memory budget was combined with incremental folds: the budgeted
    /// campaign streams its report from spilled partitions, while folds
    /// need every day's appends resident.
    BudgetWithFolds,
    /// The snapshot carries budget state but the resume has no budget:
    /// its spilled partitions would be silently missing.
    BudgetedSnapshot,
    /// Folds are attached but the snapshot carries no fold ledger.
    NoFoldLedger,
    /// The snapshot's fold ledger does not match the attached folds.
    FoldMismatch(CheckpointError),
    /// The snapshot decodes cleanly but its parts disagree with each
    /// other (the message names which).
    Inconsistent(&'static str),
    /// The snapshot decodes cleanly but violates campaign invariants.
    Invariants(Vec<AuditViolation>),
    /// The campaign itself broke a cross-component invariant at the end
    /// of study day `day` (0-based): a program bug, not bad input. Only
    /// debug builds audit every day boundary.
    DayInvariants {
        /// The day just completed.
        day: u32,
        /// What the audit found.
        violations: Vec<AuditViolation>,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            StudyError::Budget(e) => write!(f, "budget: {e}"),
            StudyError::Core(e) => write!(f, "campaign: {e}"),
            StudyError::BudgetWithFolds => {
                f.write_str("--mem-budget does not combine with --analysis incremental")
            }
            StudyError::BudgetedSnapshot => f.write_str(
                "snapshot was written under --mem-budget; resume it with the \
                 same --mem-budget (and the original --spill-dir)",
            ),
            StudyError::NoFoldLedger => f.write_str(
                "snapshot carries no fold ledger: it was written by a batch run; \
                 resume it in batch mode or re-run incrementally from scratch",
            ),
            StudyError::FoldMismatch(e) => {
                write!(f, "fold ledger does not match the registered folds: {e}")
            }
            StudyError::Inconsistent(what) => write!(f, "inconsistent snapshot: {what}"),
            StudyError::Invariants(violations) => write!(
                f,
                "snapshot violates {} campaign invariant(s), first: {}",
                violations.len(),
                violations
                    .first()
                    .map_or(String::new(), AuditViolation::render)
            ),
            StudyError::DayInvariants { day, violations } => write!(
                f,
                "invariant audit failed after day {day}: {} violation(s), first: {}",
                violations.len(),
                violations
                    .first()
                    .map_or(String::new(), AuditViolation::render)
            ),
        }
    }
}

impl std::error::Error for StudyError {}

impl From<CheckpointError> for StudyError {
    fn from(e: CheckpointError) -> StudyError {
        StudyError::Checkpoint(e)
    }
}

impl From<BudgetError> for StudyError {
    fn from(e: BudgetError) -> StudyError {
        StudyError::Budget(e)
    }
}

impl From<CoreError> for StudyError {
    fn from(e: CoreError) -> StudyError {
        StudyError::Core(e)
    }
}

/// The output of a budgeted campaign. There is no [`Dataset`]: a
/// budgeted run streams its report from spilled partitions plus the
/// resident tail instead of materializing the full tweet log, so the
/// report (byte-identical to the unbudgeted run's) and the Table 2
/// totals are the deliverables, with the accountant's final statistics
/// alongside.
#[derive(Debug)]
pub struct BudgetedRun {
    /// The canonical campaign report — byte-identical to
    /// [`Dataset::campaign_report`] of an unbudgeted run.
    pub report: String,
    /// Table 2 bottom row.
    pub totals: PlatformSummary,
    /// Final accountant statistics (resident peak, spill volume, …).
    pub stats: BudgetStats,
    /// The `budget.*` metric registry (kept out of the report's frozen
    /// counter digest).
    pub metrics: Metrics,
}

/// What a [`Campaign`] delivers. Returned once per campaign, so the
/// variants stay unboxed.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// An unbudgeted campaign ran to the end and assembled its dataset.
    Dataset(Dataset),
    /// A budgeted campaign ran to the end and streamed its report.
    Budgeted(BudgetedRun),
    /// The campaign stopped at its [`Campaign::halt_after`] boundary;
    /// [`Campaign::resume`] continues from this state.
    Halted(CampaignState),
}

impl RunOutcome {
    /// The assembled dataset of a complete unbudgeted run.
    pub fn into_dataset(self) -> Option<Dataset> {
        match self {
            RunOutcome::Dataset(ds) => Some(ds),
            _ => None,
        }
    }

    /// The streamed report of a complete budgeted run.
    pub fn into_budgeted(self) -> Option<BudgetedRun> {
        match self {
            RunOutcome::Budgeted(run) => Some(run),
            _ => None,
        }
    }

    /// The day-boundary state of a halted run.
    pub fn into_halted(self) -> Option<CampaignState> {
        match self {
            RunOutcome::Halted(state) => Some(state),
            _ => None,
        }
    }
}

/// One collection campaign, configured by builder. Every combination of
/// snapshots, memory budget, incremental folds, halt day and resume runs
/// through the same day loop: step the day, fold it, enforce the budget,
/// save the interval snapshot, and at the end halt or assemble.
///
/// ```no_run
/// use chatlens_core::study::{Campaign, CampaignConfig, CheckpointPolicy};
/// use chatlens_workload::ScenarioConfig;
///
/// let policy = CheckpointPolicy::daily("checkpoints");
/// let state = Campaign::new(CampaignConfig::default())
///     .checkpoint(&policy)
///     .halt_after(20)
///     .run(ScenarioConfig::at_scale(0.01))?
///     .into_halted()
///     .expect("halted at day 20");
/// let ds = Campaign::new(state.campaign)
///     .checkpoint(&policy)
///     .resume(&state)?
///     .into_dataset();
/// # Ok::<(), chatlens_core::StudyError>(())
/// ```
pub struct Campaign<'a> {
    config: CampaignConfig,
    checkpoint: Option<&'a CheckpointPolicy>,
    budget: Option<&'a BudgetPolicy>,
    folds: Option<&'a mut FoldDriver>,
    halt_after: Option<u32>,
}

impl<'a> Campaign<'a> {
    /// A plain campaign under `config`: no snapshots, no budget, no
    /// folds, run to the end.
    pub fn new(config: CampaignConfig) -> Campaign<'a> {
        Campaign {
            config,
            checkpoint: None,
            budget: None,
            folds: None,
            halt_after: None,
        }
    }

    /// Save a snapshot per `policy`. Snapshots carry the fold ledger and
    /// the budget accountant when those are attached, so the run resumes
    /// under the same options.
    pub fn checkpoint(mut self, policy: &'a CheckpointPolicy) -> Campaign<'a> {
        self.checkpoint = Some(policy);
        self
    }

    /// Run under a hard memory budget: day partitions of the collected
    /// logs are spilled coldest-first through the policy's (possibly
    /// fault-injected) filesystem whenever the accounted resident size
    /// exceeds the ceiling, and the report is streamed at the end as
    /// [`RunOutcome::Budgeted`], byte-identical to the unbudgeted
    /// [`Dataset::campaign_report`]. A resume must carry the snapshot's
    /// ceiling ([`BudgetError::ResumeMismatch`] otherwise).
    pub fn budget(mut self, policy: &'a BudgetPolicy) -> Campaign<'a> {
        self.budget = Some(policy);
        self
    }

    /// Fold every completed day into `driver`'s incremental analyses
    /// (call [`FoldDriver::finish`] afterwards for the report fragments).
    /// A resume restores the driver from the snapshot's fold ledger and
    /// audits it against the snapshot's collections.
    pub fn folds(mut self, driver: &'a mut FoldDriver) -> Campaign<'a> {
        self.folds = Some(driver);
        self
    }

    /// Stop cleanly after `days` completed study days (clamped to the
    /// study window) and return [`RunOutcome::Halted`] with the state at
    /// that boundary instead of assembling the output.
    pub fn halt_after(mut self, days: u32) -> Campaign<'a> {
        self.halt_after = Some(days);
        self
    }

    /// Build the world from `scenario` and run the campaign from day 0.
    pub fn run(self, scenario: ScenarioConfig) -> Result<RunOutcome, StudyError> {
        self.refuse_conflicts()?;
        let mut eco = Ecosystem::build(scenario);
        let mut runner = Runner::new(eco.window, self.config);
        if let Some(policy) = self.budget {
            runner.attach_budget(policy, &eco)?;
        }
        self.drive(runner, &mut eco)
    }

    /// Continue a campaign from a snapshot. The world is rebuilt from the
    /// snapshot's scenario and the campaign's mutations are replayed; the
    /// run continues under the snapshot's own `state.campaign` (set its
    /// `threads` before the call to change the worker count); the config
    /// given to [`Campaign::new`] is not consulted. The output is
    /// byte-identical to the uninterrupted run's.
    pub fn resume(mut self, state: &CampaignState) -> Result<RunOutcome, StudyError> {
        self.refuse_conflicts()?;
        let (mut eco, runner) = self.rebuild(state)?;
        self.drive(runner, &mut eco)
    }

    /// Refuse option combinations no campaign can run.
    fn refuse_conflicts(&self) -> Result<(), StudyError> {
        if self.budget.is_some() && self.folds.is_some() {
            return Err(StudyError::BudgetWithFolds);
        }
        Ok(())
    }

    /// Rebuild the ecosystem and the runner from a snapshot, then restore
    /// the accountant and the folds this campaign attaches. A snapshot
    /// that does not fit those options, or that decodes cleanly yet
    /// describes a state no campaign can reach, is a typed refusal.
    fn rebuild(&mut self, state: &CampaignState) -> Result<(Ecosystem, Runner), StudyError> {
        match (self.budget, &state.budget) {
            (None, Some(_)) => return Err(StudyError::BudgetedSnapshot),
            (Some(_), None) => {
                return Err(StudyError::Budget(BudgetError::ResumeMismatch(
                    "snapshot carries no budget state: it was written by an unbudgeted run; \
                     resume it without --mem-budget"
                        .into(),
                )))
            }
            _ => {}
        }
        if self.folds.is_some() && state.folds.is_none() {
            return Err(StudyError::NoFoldLedger);
        }
        let mut eco = Ecosystem::build(state.scenario.clone());
        eco.apply_delta(&state.delta);
        let mut runner = Runner::from_state(state, eco.window);
        let violations = crate::audit::audit_components(
            runner.window.num_days() as u32,
            &runner.discovery,
            &runner.monitor,
            &runner.joiner,
        );
        if !violations.is_empty() {
            return Err(StudyError::Invariants(violations));
        }
        if runner.marks.len() != state.day as usize {
            return Err(StudyError::Inconsistent(
                "day marks do not match the completed days",
            ));
        }
        if let (Some(policy), Some(bs)) = (self.budget, &state.budget) {
            let mut accountant = MemoryBudget::resume(bs, policy, runner.campaign.seed)?;
            accountant.reindex_spilled(&mut runner.discovery)?;
            runner.budget = Some(accountant);
        }
        if let (Some(driver), Some(ledger)) = (self.folds.as_deref_mut(), &state.folds) {
            driver.restore(ledger).map_err(StudyError::FoldMismatch)?;
            if driver.days_folded() != state.day {
                return Err(StudyError::Inconsistent(
                    "fold ledger day count disagrees with the snapshot day",
                ));
            }
            let live = [
                runner.discovery.tweets.len(),
                runner.discovery.control.len(),
                runner.discovery.groups.len(),
                runner.joiner.joined.len(),
            ]
            .map(|n| n as u64);
            let seen = [
                ledger.tweets_seen,
                ledger.control_seen,
                ledger.groups_seen,
                ledger.joined_seen,
            ];
            if seen != live {
                return Err(StudyError::Inconsistent(
                    "fold ledger cursors disagree with the snapshot's collections",
                ));
            }
        }
        Ok((eco, runner))
    }

    /// The day loop. A failing day returns its error before anything is
    /// saved, so the chain ends at the last completed boundary.
    fn drive(mut self, mut runner: Runner, eco: &mut Ecosystem) -> Result<RunOutcome, StudyError> {
        let days = runner.window.num_days() as u32;
        let until = self.halt_after.map_or(days, |d| d.min(days));
        let mut saver = self.checkpoint.map(|p| (p, p.vfs(runner.campaign.seed)));
        while runner.day < until {
            runner.step_day(eco)?;
            if let Some(driver) = self.folds.as_deref_mut() {
                driver.fold_day(&runner.parts());
            }
            runner.enforce_budget(0)?;
            if let Some((policy, vfs)) = saver.as_mut() {
                if policy.every_days > 0 && runner.day.is_multiple_of(policy.every_days) {
                    let state = runner.state(eco, self.folds.as_deref());
                    let path = policy.snapshot_path(runner.day);
                    match save_to_file_with(vfs.as_mut(), &path, &state) {
                        // An injected fault costs durability (the chain
                        // gets a hole recovery must walk past), never the
                        // run.
                        Err(err) if policy.disk_fault.tolerates_save_failures() => {
                            eprintln!("# snapshot save failed (injected): {err}");
                        }
                        saved => saved?,
                    }
                }
            }
        }
        if self.halt_after.is_some() {
            return Ok(RunOutcome::Halted(runner.state(eco, self.folds.as_deref())));
        }
        Ok(match runner.budget {
            Some(_) => RunOutcome::Budgeted(runner.finish_budgeted(eco)?),
            None => RunOutcome::Dataset(runner.finish(eco)?),
        })
    }
}

/// The live campaign: every mutable component plus the event timeline,
/// advanced one study day at a time so day boundaries are capturable.
struct Runner {
    window: StudyWindow,
    campaign: CampaignConfig,
    /// Completed study days (== the next day index to execute).
    day: u32,
    engine: Engine<CampaignEvent>,
    net: Net,
    rng: Rng,
    discovery: Discovery,
    monitor: Monitor,
    joiner: Joiner,
    pii: PiiStore,
    metrics: Metrics,
    /// One mark per completed day: collection-vector lengths at the day
    /// boundary. Recorded unconditionally (batch and incremental runs
    /// produce identical datasets and snapshots, folds aside).
    marks: Vec<DayMark>,
    /// The memory accountant of a budgeted run (`None` on the unbudgeted
    /// paths, which never spill and assemble datasets in memory).
    budget: Option<MemoryBudget>,
}

impl Runner {
    /// A fresh campaign over `window` with the whole event mix scheduled
    /// up front (it is static — nothing schedules during the run).
    fn new(window: StudyWindow, campaign: CampaignConfig) -> Runner {
        let start = window.start_time();
        let end = window.end_time();
        let mut engine: Engine<CampaignEvent> = Engine::new(start);

        let total_hours = window.num_days() * 24;
        for h in 0..total_hours {
            if campaign.use_search && h % u64::from(campaign.search_interval_hours.max(1)) == 0 {
                engine.schedule_at(start + SimDuration::hours(h), CampaignEvent::Search);
            }
            if campaign.use_stream {
                engine.schedule_at(
                    start + SimDuration::hours(h) + SimDuration::minutes(30),
                    CampaignEvent::StreamDrain,
                );
            }
        }
        for d in 0..window.num_days() {
            engine.schedule_at(
                start + SimDuration::days(d) + SimDuration::hours(22) + SimDuration::minutes(40),
                CampaignEvent::SampleDrain,
            );
            if d % u64::from(campaign.monitor_interval_days.max(1)) == 0 {
                engine.schedule_at(
                    start
                        + SimDuration::days(d)
                        + SimDuration::hours(23)
                        + SimDuration::minutes(10),
                    CampaignEvent::Monitor { day: d as u32 },
                );
            }
            // Backfill after the day's monitor round and last stream
            // drain, still inside the day (quiescent boundary intact).
            engine.schedule_at(
                start + SimDuration::days(d) + SimDuration::hours(23) + SimDuration::minutes(40),
                CampaignEvent::Backfill { day: d as u32 },
            );
        }
        engine.schedule_at(
            start + SimDuration::days(u64::from(campaign.join_day)) + SimDuration::hours(12),
            CampaignEvent::Join,
        );
        engine.schedule_at(
            end.checked_sub(SimDuration::minutes(20)).expect("window"),
            CampaignEvent::Collect,
        );

        Runner {
            window,
            campaign,
            day: 0,
            engine,
            net: Net::with_corruption(
                campaign.seed,
                start,
                fault_schedules(&campaign, start),
                campaign.corruption.schedule(),
            ),
            rng: Rng::new(campaign.seed ^ 0x9E37_79B9),
            discovery: Discovery::new(start),
            monitor: Monitor::with_pool(Pool::new(campaign.threads)),
            joiner: Joiner::new(),
            pii: PiiStore::new(),
            metrics: Metrics::new(),
            marks: Vec::new(),
            budget: None,
        }
    }

    /// Execute every event of the next study day. The day's deadline is
    /// its final second (23:59:59) — no campaign event is ever scheduled
    /// there, so running to it is equivalent to running through the day
    /// as part of one uninterrupted `run_until`.
    fn step_day(&mut self, eco: &mut Ecosystem) -> Result<(), StudyError> {
        let deadline = (self.window.start_time() + SimDuration::days(u64::from(self.day) + 1))
            .checked_sub(SimDuration::secs(1))
            .expect("window");
        self.run_events(eco, deadline)?;
        self.day += 1;
        self.marks.push(DayMark {
            day: self.day - 1,
            tweets: self.discovery.tweets.len() as u64,
            control: self.discovery.control.len() as u64,
            groups: self.discovery.groups.len() as u64,
            joined: self.joiner.joined.len() as u64,
        });
        // Day boundaries are quiescent points, so the cross-component
        // invariants must hold here; debug builds prove it after every
        // day, release campaigns skip the sweep.
        #[cfg(debug_assertions)]
        {
            let violations = crate::audit::audit_components(
                self.window.num_days() as u32,
                &self.discovery,
                &self.monitor,
                &self.joiner,
            );
            if !violations.is_empty() {
                return Err(StudyError::DayInvariants {
                    day: self.day - 1,
                    violations,
                });
            }
        }
        Ok(())
    }

    /// Handle every pending event up to `deadline` and return the first
    /// handler error. The engine pops the window's remaining events
    /// unhandled after a failure, so a failed runner is only ever
    /// discarded, never saved.
    fn run_events(&mut self, eco: &mut Ecosystem, deadline: SimTime) -> Result<(), CoreError> {
        let Runner {
            engine,
            campaign,
            net,
            rng,
            discovery,
            monitor,
            joiner,
            pii,
            metrics,
            ..
        } = self;
        let mut result = Ok(());
        engine.run_until(deadline, |eng, ev| {
            if result.is_ok() {
                result = handle_event(
                    ev,
                    eng.now(),
                    eco,
                    campaign,
                    net,
                    rng,
                    discovery,
                    monitor,
                    joiner,
                    pii,
                    metrics,
                );
            }
        });
        result
    }

    /// Run any remaining events (the final day's tail past 23:59:59 holds
    /// none, but resumed runners may still be mid-campaign), record the
    /// end-of-run metrics, and assemble the dataset.
    fn finish(mut self, eco: &mut Ecosystem) -> Result<Dataset, StudyError> {
        self.run_events(eco, self.window.end_time())?;
        self.record_final_metrics();
        let mut ds = Dataset::assemble(
            self.window,
            self.discovery,
            self.monitor.timelines,
            self.monitor.gaps,
            self.monitor.quarantine,
            self.joiner,
            self.pii,
            self.marks,
        );
        ds.metrics = self.metrics;
        Ok(ds)
    }

    /// Record the end-of-run metrics (part of the frozen counter digest,
    /// so the batch and budgeted paths share it).
    fn record_final_metrics(&mut self) {
        self.metrics
            .add(keys::TRANSPORT_ATTEMPTS, self.net.total_attempts());
        let (opened, fast_fails) = self.net.breaker_totals();
        self.metrics.add(keys::TRANSPORT_BREAKER_OPENED, opened);
        self.metrics
            .add(keys::TRANSPORT_BREAKER_FAST_FAILS, fast_fails);
        self.metrics
            .add(keys::MONITOR_GAP_DAYS, self.monitor.gap_days());
        self.metrics.add(
            keys::DISCOVERY_UNRECOVERED_WINDOWS,
            self.discovery.pending_windows() as u64,
        );
        self.metrics.add(
            keys::DISCOVERY_TWEETS_COLLECTED,
            self.discovery.tweets.len() as u64,
        );
        self.metrics.add(
            keys::DISCOVERY_GROUPS_DISCOVERED,
            self.discovery.groups.len() as u64,
        );
        self.metrics.add(
            keys::DISCOVERY_FAILED_REQUESTS,
            self.discovery.failed_requests,
        );
        self.metrics
            .add(keys::JOIN_DEAD_AT_JOIN, self.joiner.dead_at_join);
        self.metrics
            .add(keys::JOIN_JOINED_GROUPS, self.joiner.joined.len() as u64);
        self.metrics
            .add(keys::JOIN_FAILED_FETCHES, self.joiner.failed_fetches);
        self.metrics
            .add(keys::TRANSPORT_CORRUPTED, self.net.corrupted_total());
        self.metrics.add(
            keys::QUARANTINE_ENTRIES,
            (self.discovery.quarantine.len()
                + self.monitor.quarantine.len()
                + self.joiner.quarantine.len()) as u64,
        );
    }

    /// Attach a memory accountant to this runner. The floor is the
    /// simulated world's tweet store at encoded size — the irreducible
    /// working set no eviction can shrink.
    fn attach_budget(&mut self, policy: &BudgetPolicy, eco: &Ecosystem) -> Result<(), BudgetError> {
        let floor = eco.twitter.encoded_bytes();
        self.budget = Some(MemoryBudget::attach(policy, self.campaign.seed, floor)?);
        Ok(())
    }

    /// Day-boundary budget enforcement (no-op on unbudgeted runners).
    /// The accountant is taken out of the runner for the call so it can
    /// mutate the discovery logs it accounts for.
    fn enforce_budget(&mut self, fold_bytes: u64) -> Result<(), BudgetError> {
        let Some(mut budget) = self.budget.take() else {
            return Ok(());
        };
        let timeline_bytes = self.monitor.timelines.encoded_bytes();
        let result = budget.enforce(
            self.day,
            &self.marks,
            &mut self.discovery,
            timeline_bytes,
            fold_bytes,
        );
        self.budget = Some(budget);
        result
    }

    /// Stream the campaign report without ever assembling the full
    /// dataset in memory: spilled day-partitions are faulted back one at
    /// a time (tweets pass, then control pass — the frozen digest
    /// layout), the resident tails follow, and the resident stores
    /// render as usual. Byte-identical to [`Runner::finish`]'s
    /// [`Dataset::campaign_report`] by construction — both funnel
    /// through `render_campaign_report`.
    fn finish_budgeted(mut self, eco: &mut Ecosystem) -> Result<BudgetedRun, StudyError> {
        self.run_events(eco, self.window.end_time())?;
        self.record_final_metrics();
        let mut budget = self
            .budget
            .take()
            .expect("budgeted runner has an accountant");

        let mut quarantine = std::mem::take(&mut self.discovery.quarantine);
        quarantine.extend(std::mem::take(&mut self.monitor.quarantine));
        quarantine.extend(std::mem::take(&mut self.joiner.quarantine));

        let days: Vec<u32> = budget.manifest().iter().map(|p| p.day).collect();
        let mut rb = TweetRollupBuilder::new();
        for &day in &days {
            let part = budget.read_partition(day)?;
            for ct in &part.tweets {
                rb.add_tweet(ct);
            }
        }
        for ct in self.discovery.tweets.resident() {
            rb.add_tweet(ct);
        }
        for &day in &days {
            let part = budget.read_partition(day)?;
            for tw in &part.control {
                rb.add_control(tw);
            }
        }
        for tw in self.discovery.control.resident() {
            rb.add_control(tw);
        }
        let rollup = rb.finish();

        let inputs = ReportInputs {
            window: self.window,
            groups: &self.discovery.groups,
            interner: &self.discovery.interner,
            timelines: &self.monitor.timelines,
            gaps: &self.monitor.gaps,
            quarantine: &quarantine,
            joined: &self.joiner.joined,
            pii: &self.pii,
            extraction: self.discovery.stats,
            failed_requests: self.discovery.failed_requests,
            accounts_used: self.joiner.accounts_used,
            bot_join_rejected: self.joiner.bot_join_rejected,
            metrics: &self.metrics,
        };
        let report = render_campaign_report(&rollup, &inputs);
        let totals = inputs.totals_with(&rollup);
        Ok(BudgetedRun {
            report,
            totals,
            stats: budget.stats(),
            metrics: budget.metrics(),
        })
    }

    /// Capture the full campaign state (valid at a day boundary),
    /// including the fold ledger of an incremental run's driver.
    fn state(&self, eco: &Ecosystem, folds: Option<&FoldDriver>) -> CampaignState {
        CampaignState {
            scenario: eco.config.clone(),
            campaign: self.campaign,
            day: self.day,
            engine: EngineState::capture(&self.engine),
            rng: self.rng.state(),
            clients: self.net.export_state(),
            discovery: DiscoveryState::capture(&self.discovery),
            monitor: MonitorState::capture(&self.monitor),
            joiner: JoinerState::capture(&self.joiner),
            pii: PiiState::capture(&self.pii),
            metrics: self.metrics.clone(),
            marks: self.marks.clone(),
            folds: folds.map(FoldDriver::ledger),
            delta: eco.export_delta(),
            budget: self.budget.as_ref().map(|b| b.state()),
        }
    }

    /// Borrow the live collections for per-day fold slicing.
    fn parts(&self) -> DayParts<'_> {
        DayParts {
            window: self.window,
            tweets: self.discovery.tweets.view(),
            control: self.discovery.control.view(),
            groups: &self.discovery.groups,
            joined: &self.joiner.joined,
            interner: self.discovery.interner(),
            timelines: &self.monitor.timelines,
            gaps: &self.monitor.gaps,
            pii: &self.pii,
        }
    }

    /// Restore a runner from a snapshot. `window` comes from the rebuilt
    /// ecosystem; the transport clients are rebuilt with their original
    /// configuration and then overwritten with the snapshotted state.
    fn from_state(state: &CampaignState, window: StudyWindow) -> Runner {
        let campaign = state.campaign;
        let start = window.start_time();
        let mut net = Net::with_corruption(
            campaign.seed,
            start,
            fault_schedules(&campaign, start),
            campaign.corruption.schedule(),
        );
        net.restore_state(state.clients.clone());
        Runner {
            window,
            campaign,
            day: state.day,
            engine: state.engine.restore(),
            net,
            rng: Rng::from_state(state.rng),
            discovery: state.discovery.restore(start),
            monitor: state.monitor.restore(Pool::new(campaign.threads)),
            joiner: state.joiner.restore(),
            pii: state.pii.restore(),
            metrics: state.metrics.clone(),
            marks: state.marks.clone(),
            budget: None,
        }
    }
}

/// One campaign event, dispatched against the pipeline components. Free
/// function (rather than a `Runner` method) so `run_events` can lend the
/// engine to `run_until` while the handler mutates the other fields.
#[allow(clippy::too_many_arguments)]
fn handle_event(
    ev: CampaignEvent,
    now: SimTime,
    eco: &mut Ecosystem,
    campaign: &CampaignConfig,
    net: &mut Net,
    rng: &mut Rng,
    discovery: &mut Discovery,
    monitor: &mut Monitor,
    joiner: &mut Joiner,
    pii: &mut PiiStore,
    metrics: &mut Metrics,
) -> Result<(), CoreError> {
    match ev {
        CampaignEvent::Search => {
            metrics.incr(keys::CAMPAIGN_SEARCH_ROUNDS);
            metrics.time_stage(keys::STAGE_SEARCH, || discovery.run_search(net, eco, now))?;
            metrics.observe(
                keys::DISCOVERY_GROUPS_KNOWN,
                discovery.group_count() as f64,
                &[1e2, 1e3, 1e4, 1e5, 1e6],
            );
        }
        CampaignEvent::StreamDrain => {
            metrics.incr(keys::CAMPAIGN_STREAM_DRAINS);
            metrics.time_stage(keys::STAGE_STREAM, || discovery.drain_stream(net, eco, now))?;
        }
        CampaignEvent::SampleDrain => {
            metrics.incr(keys::CAMPAIGN_SAMPLE_DRAINS);
            metrics.time_stage(keys::STAGE_SAMPLE, || discovery.drain_sample(net, eco, now))?;
        }
        CampaignEvent::Monitor { day } => {
            metrics.incr(keys::CAMPAIGN_MONITOR_ROUNDS);
            metrics.time_stage(keys::STAGE_MONITOR, || {
                monitor.run_day(net, eco, discovery, now, day, Some(pii))
            })?;
        }
        CampaignEvent::Join => {
            metrics.time_stage(keys::STAGE_JOIN, || {
                for kind in PlatformKind::ALL {
                    let budget = eco.config.join_budget_scaled(kind);
                    let disco: &Discovery = discovery;
                    let timelines = &monitor.timelines;
                    joiner.join_phase_with(
                        net,
                        eco,
                        disco,
                        kind,
                        budget,
                        now,
                        rng,
                        campaign.join_strategy,
                        &|key| {
                            disco
                                .slot_of_key(key)
                                .and_then(|slot| timelines.get(slot))
                                .and_then(|t| t.size_span())
                                .map(|(_, last)| last)
                        },
                    )?;
                }
                Ok::<(), CoreError>(())
            })?;
        }
        CampaignEvent::Collect => {
            metrics.time_stage(keys::STAGE_COLLECT, || {
                joiner.collect_phase(net, eco, now, pii)
            })?;
        }
        CampaignEvent::Backfill { day } => {
            metrics.incr(keys::CAMPAIGN_BACKFILL_ROUNDS);
            metrics.time_stage(keys::STAGE_BACKFILL, || {
                discovery.backfill(net, eco, now)?;
                monitor.backfill_day(net, eco, discovery, now, day, Some(pii))
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The full tiny campaign is the expensive fixture here; run it once
    /// and share it across tests.
    fn tiny_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| run_study(ScenarioConfig::tiny()))
    }

    #[test]
    fn full_campaign_produces_everything() {
        let ds = tiny_dataset();
        assert!(!ds.tweets.is_empty());
        assert!(!ds.control.is_empty());
        assert!(!ds.groups.is_empty());
        assert!(!ds.timelines.is_empty());
        assert!(!ds.joined.is_empty());
        assert!(ds.bot_join_rejected);
        assert!(ds.pii.wa_total_phones() > 0);
        // Every platform is represented.
        for kind in PlatformKind::ALL {
            let s = ds.summary(kind);
            assert!(s.tweets > 0, "{kind} tweets");
            assert!(s.group_urls > 0, "{kind} urls");
            assert!(s.joined_groups > 0, "{kind} joined");
            assert!(s.messages > 0, "{kind} messages");
        }
    }

    #[test]
    fn discovery_covers_most_of_the_world() {
        let ds = tiny_dataset();
        let cfg = ScenarioConfig::tiny();
        for kind in PlatformKind::ALL {
            let expected = cfg.scaled(cfg.platform(kind).n_group_urls) as f64;
            let found = ds.summary(kind).group_urls as f64;
            let coverage = found / expected;
            assert!(
                coverage > 0.9,
                "{kind}: discovered {found} of {expected} ({coverage:.2})"
            );
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_study(ScenarioConfig::at_scale(0.003));
        let b = run_study(ScenarioConfig::at_scale(0.003));
        assert_eq!(a.tweets.len(), b.tweets.len());
        assert_eq!(a.groups.len(), b.groups.len());
        assert_eq!(a.joined.len(), b.joined.len());
        assert_eq!(a.pii.wa_total_phones(), b.pii.wa_total_phones());
        assert_eq!(a.totals(), b.totals());
    }

    #[test]
    fn thread_count_never_changes_the_dataset() {
        let run = |threads: usize| {
            run_study_with(
                ScenarioConfig::at_scale(0.003),
                CampaignConfig {
                    threads,
                    ..CampaignConfig::default()
                },
            )
        };
        let serial = run(1);
        // Stage timings were recorded (values are wall-clock and therefore
        // uncomparable, but the counters must exist).
        assert!(serial.metrics.get("stage.search.runs") > 0);
        assert!(serial.metrics.get("stage.monitor.runs") > 0);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(par.totals(), serial.totals(), "{threads} threads");
            assert_eq!(par.tweets.len(), serial.tweets.len());
            assert_eq!(par.timelines, serial.timelines, "{threads} threads");
            assert_eq!(
                par.pii.wa_total_phones(),
                serial.pii.wa_total_phones(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn joined_budgets_respected() {
        let ds = tiny_dataset();
        let cfg = ScenarioConfig::tiny();
        for kind in PlatformKind::ALL {
            let budget = cfg.join_budget_scaled(kind);
            let joined = ds.summary(kind).joined_groups;
            assert!(joined <= budget, "{kind}: {joined} > {budget}");
        }
    }

    #[test]
    fn monitor_saw_discord_die_young() {
        let ds = tiny_dataset();
        let dc: Vec<_> = ds
            .groups
            .iter()
            .filter(|g| g.platform == PlatformKind::Discord)
            .collect();
        let dead_on_arrival = dc
            .iter()
            .filter(|g| ds.timeline_of(g).is_some_and(|t| t.dead_on_arrival()))
            .count() as f64
            / dc.len() as f64;
        assert!(
            dead_on_arrival > 0.4,
            "Discord dead-on-arrival share {dead_on_arrival}"
        );
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted() {
        // Capture mid-campaign, rebuild the world from scratch, and run
        // the rest: the dataset must match an uninterrupted run exactly
        // (wall-clock stage timings aside).
        let scenario = ScenarioConfig::at_scale(0.003);
        let mut full = run_study(scenario.clone());

        let campaign = CampaignConfig::default();
        let state = Campaign::new(campaign)
            .halt_after(3)
            .run(scenario)
            .expect("halted run")
            .into_halted()
            .expect("halts at day 3");
        let mut resumed = Campaign::new(campaign)
            .resume(&state)
            .expect("resumed run")
            .into_dataset()
            .expect("dataset");

        full.metrics.strip_wall_clock();
        resumed.metrics.strip_wall_clock();
        assert_eq!(full, resumed);
    }
}
