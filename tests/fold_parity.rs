//! Incremental == batch parity suite for the analysis folds (PR 8's
//! correctness lock, extending the PR 6 golden-output contract).
//!
//! For every fault/corruption profile the golden suite covers (calm,
//! bursty, hostile), this suite asserts that each analysis fold's
//! rendered report fragment is **byte-identical** to the batch
//! computation over the final dataset:
//!
//! - at 1, 2 and 8 worker threads (both the campaign's thread knob and
//!   the fold driver's finish pool), and
//! - across a kill/resume: an incrementally-checkpointed run is cut at a
//!   mid-campaign snapshot, the folds are restored from the snapshot's
//!   ledger (no raw-history replay), and the resumed run must land on
//!   the same bytes, and
//! - across a halt: an incrementally-checkpointed run stopped at a day
//!   boundary and resumed from its own chain lands on the bytes of the
//!   uninterrupted incremental run.
//!
//! The datasets themselves are also asserted equal, so the fold plumbing
//! provably does not perturb the collection pipeline.

use chatlens::analysis::{batch_fragments, standard_folds};
use chatlens::checkpoint::load_from_file;
use chatlens::core::{
    recover_latest_state, run_study_with, Campaign, CampaignState, CheckpointPolicy, FoldDriver,
};
use chatlens::simnet::fault::{CorruptionProfile, FaultProfile};
use chatlens::simnet::par::Pool;
use chatlens::{CampaignConfig, Dataset, ScenarioConfig};

/// Same scale as the golden suite: all three platforms discover, join
/// and revoke, small enough for profiles × thread counts in CI.
const SCALE: f64 = 0.002;

const PROFILES: [&str; 3] = ["calm", "bursty", "hostile"];

fn campaign_for(profile: &str, threads: usize) -> CampaignConfig {
    let base = match profile {
        "calm" => CampaignConfig::default(),
        "bursty" => CampaignConfig {
            profile: FaultProfile::Bursty,
            ..CampaignConfig::default()
        },
        "hostile" => CampaignConfig {
            corruption: CorruptionProfile::Hostile,
            ..CampaignConfig::default()
        },
        other => panic!("unknown profile {other:?}"),
    };
    CampaignConfig { threads, ..base }
}

/// Per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chatlens-fold-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The batch reference: final dataset plus every batch fragment.
fn batch_reference(profile: &str) -> (Dataset, Vec<(&'static str, String)>) {
    let ds = run_study_with(ScenarioConfig::at_scale(SCALE), campaign_for(profile, 1));
    let pool = Pool::new(1);
    let fragments = batch_fragments(&ds, &pool);
    (ds, fragments)
}

fn assert_fragments_match(
    profile: &str,
    context: &str,
    batch: &[(&'static str, String)],
    outcome: &chatlens::core::FoldOutcome,
) {
    assert_eq!(
        batch.len(),
        outcome.fragments.len(),
        "{profile}/{context}: fold registry drifted from batch registry"
    );
    for (name, expected) in batch {
        let actual = outcome
            .fragment(name)
            .unwrap_or_else(|| panic!("{profile}/{context}: fold {name} missing"));
        if expected != actual {
            for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
                assert_eq!(
                    e,
                    a,
                    "{profile}/{context}: fold {name} diverged from batch at line {}",
                    i + 1
                );
            }
            panic!(
                "{profile}/{context}: fold {name} diverged from batch in length: {} vs {} bytes",
                expected.len(),
                actual.len()
            );
        }
    }
}

/// Incremental folds reproduce the batch bytes at 1, 2 and 8 threads for
/// every profile, and the folded run's dataset equals the batch run's.
#[test]
fn incremental_matches_batch_across_profiles_and_threads() {
    for profile in PROFILES {
        let (batch_ds, batch) = batch_reference(profile);
        for threads in [1usize, 2, 8] {
            let mut driver = FoldDriver::new(standard_folds(), threads);
            let ds = Campaign::new(campaign_for(profile, threads))
                .folds(&mut driver)
                .run(ScenarioConfig::at_scale(SCALE))
                .expect("folded run completes")
                .into_dataset()
                .expect("dataset");
            assert_eq!(
                ds.campaign_report(),
                batch_ds.campaign_report(),
                "{profile}@{threads}: folded run perturbed the dataset"
            );
            let outcome = driver.finish();
            assert_eq!(outcome.days_folded, ds.window.num_days() as u32);
            assert_fragments_match(profile, &format!("threads={threads}"), &batch, &outcome);
        }
    }
}

/// Kill an incrementally-checkpointed run at a mid-campaign snapshot,
/// restore the folds from the snapshot's ledger, resume, and land on the
/// batch bytes — no raw-history replay anywhere.
#[test]
fn incremental_survives_kill_and_resume() {
    for profile in PROFILES {
        let (batch_ds, batch) = batch_reference(profile);
        let dir = scratch(profile);
        let policy = CheckpointPolicy::daily(dir.clone());

        // The "killed" first attempt: full run, snapshots daily.
        let mut driver = FoldDriver::new(standard_folds(), 1);
        Campaign::new(campaign_for(profile, 1))
            .checkpoint(&policy)
            .folds(&mut driver)
            .run(ScenarioConfig::at_scale(SCALE))
            .expect("checkpointed folded run completes");

        // Resume from a mid-campaign snapshot with a *fresh* driver:
        // everything it knows about days 0..=17 must come from the
        // snapshot's fold ledger.
        let mid = policy.snapshot_path(17);
        assert!(mid.exists(), "{profile}: day-17 snapshot missing");
        let state: CampaignState = load_from_file(&mid).expect("mid-campaign snapshot loads");
        let mut resumed = FoldDriver::new(standard_folds(), 1);
        let ds = Campaign::new(state.campaign)
            .folds(&mut resumed)
            .resume(&state)
            .expect("resumed folded run completes")
            .into_dataset()
            .expect("dataset");
        assert_eq!(
            ds.campaign_report(),
            batch_ds.campaign_report(),
            "{profile}: resumed folded run perturbed the dataset"
        );
        let outcome = resumed.finish();
        assert_fragments_match(profile, "kill/resume", &batch, &outcome);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Halt an incrementally-checkpointed run after day 20, recover the
/// newest snapshot from its own chain, and resume it with a fresh driver:
/// the fragments and the dataset equal the uninterrupted incremental
/// run's.
#[test]
fn incremental_halted_and_resumed_matches_uninterrupted() {
    let campaign = campaign_for("calm", 1);
    let mut driver = FoldDriver::new(standard_folds(), 1);
    let uninterrupted = Campaign::new(campaign)
        .folds(&mut driver)
        .run(ScenarioConfig::at_scale(SCALE))
        .expect("folded run completes")
        .into_dataset()
        .expect("dataset");
    let expected = driver.finish();

    let dir = scratch("halt");
    let policy = CheckpointPolicy::daily(dir.clone());
    let mut halted = FoldDriver::new(standard_folds(), 1);
    let state = Campaign::new(campaign)
        .checkpoint(&policy)
        .folds(&mut halted)
        .halt_after(20)
        .run(ScenarioConfig::at_scale(SCALE))
        .expect("halted folded run completes")
        .into_halted()
        .expect("halts at day 20");
    assert_eq!(state.day, 20);
    assert!(state.folds.is_some(), "the halted state carries the folds");

    let recovered = recover_latest_state(&policy, campaign.seed, None)
        .expect("chain walk")
        .state
        .expect("the day-20 snapshot survives");
    assert_eq!(recovered.day, 20);
    let mut resumed = FoldDriver::new(standard_folds(), 1);
    let ds = Campaign::new(recovered.campaign)
        .checkpoint(&policy)
        .folds(&mut resumed)
        .resume(&recovered)
        .expect("resumed folded run completes")
        .into_dataset()
        .expect("dataset");
    assert_eq!(
        ds.campaign_report(),
        uninterrupted.campaign_report(),
        "halted and resumed folded run perturbed the dataset"
    );
    let outcome = resumed.finish();
    assert_eq!(outcome.days_folded, expected.days_folded);
    assert_eq!(outcome.fragments, expected.fragments);

    let _ = std::fs::remove_dir_all(&dir);
}
