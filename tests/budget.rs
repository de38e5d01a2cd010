//! The memory-budget tentpole: a campaign run under a hard byte ceiling
//! must degrade by spilling cold day-partitions to disk — never by
//! aborting — and still produce a campaign report byte-identical to the
//! unbudgeted run's.
//!
//! The composition matrix at the bottom is the acceptance gate: budget
//! enforcement × torn-write disk faults (on both the snapshot chain and
//! the spill files) × a kill at a day boundary with chain-recovery
//! resume, at 1, 2 and 8 worker threads — every combination must
//! converge on the same report bytes, and every detected torn spill
//! write must be ledgered.

use std::path::PathBuf;

use chatlens::core::budget::{load_spill_ledger, BudgetLimit, BudgetPolicy};
use chatlens::core::{
    recover_latest_state, resume_study_budgeted, run_study_days_budgeted, BudgetedRun, Campaign,
    CampaignConfig, CheckpointPolicy, StudyError,
};
use chatlens::simnet::fault::DiskFaultProfile;
use chatlens::{run_study_with, ScenarioConfig};

/// Same scale as the crash-storm and checkpoint suites: every pipeline
/// stage fires, runs stay CI-sized.
fn scenario() -> ScenarioConfig {
    ScenarioConfig::at_scale(0.002)
}

/// Per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatlens-budget-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A campaign under `budget`, run to the end.
fn run_budgeted(
    campaign: CampaignConfig,
    budget: &BudgetPolicy,
) -> Result<BudgetedRun, StudyError> {
    let outcome = Campaign::new(campaign).budget(budget).run(scenario())?;
    Ok(outcome.into_budgeted().expect("a budgeted campaign"))
}

/// The unbudgeted reference report.
fn reference_report() -> String {
    run_study_with(scenario(), CampaignConfig::default()).campaign_report()
}

#[test]
fn min_mode_spills_everything_cold_and_reproduces_the_report() {
    let reference = reference_report();
    let dir = scratch("min");
    let budget = BudgetPolicy::new(BudgetLimit::Min, &dir);
    let run = run_budgeted(CampaignConfig::default(), &budget).expect("Min mode never refuses");
    assert_eq!(
        run.report, reference,
        "budgeted report must be byte-identical to the unbudgeted run's"
    );
    assert!(
        run.stats.partitions > 0 && run.stats.evictions > 0,
        "Min mode must actually evict cold partitions: {:?}",
        run.stats
    );
    assert!(
        run.stats.spilled_bytes > 0 && run.stats.faults >= run.stats.partitions,
        "streaming the report must fault every partition back: {:?}",
        run.stats
    );
    // Every spilled partition is on disk, named by day.
    for part in 0..run.stats.partitions {
        assert!(
            dir.join(format!("day{part:03}.part")).is_file(),
            "spill partition file for day {part} missing"
        );
    }
}

#[test]
fn a_byte_ceiling_below_the_unbounded_peak_holds_and_reproduces_the_report() {
    let reference = reference_report();

    // Probe the unbounded peak with a ceiling nothing can exceed.
    let probe_dir = scratch("probe");
    let probe = run_budgeted(
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(u64::MAX), &probe_dir),
    )
    .expect("an unreachable ceiling never refuses");
    assert_eq!(probe.stats.evictions, 0, "nothing to evict under u64::MAX");
    let peak = probe.stats.resident_peak;
    let floor = probe.stats.floor;
    assert!(peak > floor, "the campaign must accumulate above the floor");

    // A ceiling strictly below the unbounded peak forces spills.
    let limit = floor + (peak - floor) / 2;
    let dir = scratch("bytes");
    let run = run_budgeted(
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(limit), &dir),
    )
    .expect("spilling must satisfy this ceiling — refusal is a bug");
    assert_eq!(
        run.report, reference,
        "report must not depend on the budget"
    );
    assert!(
        run.stats.resident_peak <= limit,
        "budget.resident_peak {} exceeded the ceiling {}",
        run.stats.resident_peak,
        limit
    );
    assert!(run.stats.evictions > 0, "the ceiling must force evictions");
}

#[test]
fn a_ceiling_below_the_floor_is_a_typed_refusal() {
    let dir = scratch("floor");
    let err = run_budgeted(
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(1), &dir),
    )
    .expect_err("a 1-byte ceiling is below any floor");
    let msg = err.to_string();
    assert!(
        msg.contains("budget"),
        "refusal must be the typed budget error, got: {msg}"
    );
}

/// The composition matrix: `--mem-budget` × `--disk-fault torn` (both
/// the snapshot chain and the spill I/O ride the same fault-injected
/// filesystem) × a kill at the day-20 boundary with chain-recovery
/// resume — at 1, 2 and 8 worker threads. Every cell must converge on
/// the unbudgeted report's exact bytes, and every detected torn spill
/// write must appear in the spill ledger.
#[test]
fn budget_torn_kill_resume_matrix_converges_on_identical_reports() {
    let reference = reference_report();

    for threads in [1usize, 2, 8] {
        let campaign = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };

        // Uninterrupted budgeted run under torn spill I/O.
        let dir = scratch(&format!("torn-full-t{threads}"));
        let budget = BudgetPolicy {
            limit: BudgetLimit::Min,
            dir: dir.clone(),
            disk_fault: DiskFaultProfile::Torn,
        };
        let full = run_budgeted(campaign, &budget)
            .expect("torn spill I/O is healed by verify-and-retry, never fatal");
        assert_eq!(
            full.report, reference,
            "torn spill I/O must not perturb the report (threads={threads})"
        );
        if full.stats.torn_detected > 0 {
            let ledger = load_spill_ledger(&dir);
            assert!(
                ledger.len() as u64 >= full.stats.torn_detected,
                "every detected torn spill write must be ledgered \
                 ({} detected, {} ledger entries)",
                full.stats.torn_detected,
                ledger.len()
            );
        }

        // Kill at the day-20 boundary, then chain-recover and resume
        // under the same budget — snapshots and spills both torn.
        let ckpt_dir = scratch(&format!("torn-kill-ckpt-t{threads}"));
        let spill_dir = scratch(&format!("torn-kill-spill-t{threads}"));
        let policy = CheckpointPolicy {
            dir: ckpt_dir.clone(),
            every_days: 1,
            disk_fault: DiskFaultProfile::Torn,
        };
        let budget = BudgetPolicy {
            limit: BudgetLimit::Min,
            dir: spill_dir.clone(),
            disk_fault: DiskFaultProfile::Torn,
        };
        let halted = run_study_days_budgeted(scenario(), campaign, &policy, &budget, 20)
            .expect("halting a budgeted run at a boundary is clean");
        assert_eq!(halted, 20);
        let recovered = recover_latest_state(&policy, campaign.seed, Some(20))
            .expect("chain walk never hard-fails");
        let state = recovered
            .state
            .expect("some valid snapshot ancestor survives the torn profile");
        assert!(state.day <= 20);
        assert!(
            state.budget.is_some(),
            "a budgeted snapshot must carry the accountant's state"
        );
        let resumed = resume_study_budgeted(&state, &budget)
            .expect("resume under the same ceiling completes");
        assert_eq!(
            resumed.report, reference,
            "kill/resume under budget + torn faults must converge on the \
             unbudgeted report (threads={threads}, resumed from day {})",
            state.day
        );
    }
}

/// A budgeted, checkpointed, calm-disk campaign end to end: the ceiling
/// holds, the report matches, and the snapshot chain stays resumable.
#[test]
fn budgeted_checkpointed_run_reports_identically() {
    let reference = reference_report();
    let ckpt_dir = scratch("ckpt");
    let spill_dir = scratch("ckpt-spill");
    let policy = CheckpointPolicy {
        dir: ckpt_dir,
        every_days: 1,
        disk_fault: DiskFaultProfile::Calm,
    };
    let budget = BudgetPolicy::new(BudgetLimit::Min, &spill_dir);
    let run = Campaign::new(CampaignConfig::default())
        .checkpoint(&policy)
        .budget(&budget)
        .run(scenario())
        .expect("calm budgeted checkpointed run completes")
        .into_budgeted()
        .expect("a budgeted campaign");
    assert_eq!(run.report, reference);
    assert!(run.stats.partitions > 0);
}
