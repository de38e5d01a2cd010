//! The crash storm: a torn-write disk-fault campaign killed at *every*
//! day boundary must resume — through chain recovery, walking backwards
//! past the injected damage — to a dataset bit-identical to the
//! fault-free run, at 1, 2 and 8 worker threads, with every skipped
//! snapshot accounted for in the directory's persisted recovery ledger.
//!
//! This is the tentpole durability guarantee: under the `torn` profile a
//! quarter of saves silently lose their rename (the classic
//! crash-after-ack torn write), a tenth land truncated, and reads see
//! occasional bit-rot — yet no kill point loses data, because some valid
//! ancestor always survives and replaying the lost days is deterministic.

use std::path::PathBuf;

use chatlens::checkpoint::chain::{load_ledger, RecoveryEntry};
use chatlens::core::{recover_latest_state, Campaign, CampaignConfig, CheckpointPolicy};
use chatlens::simnet::fault::DiskFaultProfile;
use chatlens::{run_study_with, Dataset, ScenarioConfig};

/// Small world, full 38-day window — the same scale the checkpoint
/// suite uses, so every stage still fires.
fn scenario() -> ScenarioConfig {
    ScenarioConfig::at_scale(0.002)
}

/// Per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatlens-storm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn baseline() -> Dataset {
    let mut ds = run_study_with(scenario(), CampaignConfig::default());
    ds.metrics.strip_wall_clock();
    ds
}

#[test]
fn torn_storm_survives_a_kill_at_every_day_boundary() {
    let fault_free = baseline();

    // The torn-profile campaign itself: injected save failures are
    // tolerated (logged, not fatal) and must not perturb the dataset.
    let dir = scratch("torn");
    let policy = CheckpointPolicy {
        dir: dir.clone(),
        every_days: 1,
        disk_fault: DiskFaultProfile::Torn,
    };
    let mut torn = Campaign::new(CampaignConfig::default())
        .checkpoint(&policy)
        .run(scenario())
        .expect("torn-profile saves are tolerated, not fatal")
        .into_dataset()
        .expect("dataset");
    torn.metrics.strip_wall_clock();
    assert_eq!(
        torn, fault_free,
        "injected disk faults must never perturb the campaign itself"
    );

    let seed = CampaignConfig::default().seed;
    let threads = [1usize, 2, 8];
    let mut all_skipped: Vec<RecoveryEntry> = Vec::new();
    let mut recovered_behind_kill = 0u32;
    for kill_day in 1..=38u32 {
        // Simulate `kill -9` right after the day-`kill_day` boundary:
        // the newest snapshot evidence is day `kill_day`, possibly torn.
        let recovered = recover_latest_state(&policy, seed, Some(kill_day))
            .expect("chain walk itself never hard-fails");
        all_skipped.extend(recovered.skipped.iter().cloned());
        let state = recovered
            .state
            .expect("some valid ancestor must survive the torn profile");
        assert_eq!(state.day, recovered.day);
        assert!(
            recovered.day <= kill_day,
            "recovery may only walk backwards from the kill point"
        );
        if recovered.day < kill_day {
            recovered_behind_kill += 1;
        }

        let mut state = state;
        state.campaign.threads = threads[kill_day as usize % threads.len()];
        let mut resumed = Campaign::new(state.campaign)
            .resume(&state)
            .expect("resume completes")
            .into_dataset()
            .expect("dataset");
        resumed.metrics.strip_wall_clock();
        assert_eq!(
            resumed, fault_free,
            "kill at day {kill_day} resumed from day {} at {} thread(s) \
             must replay to the fault-free dataset",
            recovered.day, state.campaign.threads
        );
    }

    // Storm shape for the EXPERIMENTS.md recovery matrix (visible with
    // `--nocapture`).
    println!(
        "crash storm: {recovered_behind_kill}/38 kill points walked back; \
         {} skip records",
        all_skipped.len()
    );

    // The torn profile is aggressive enough (deterministically, for the
    // default seed) that at least one kill point lands on a damaged
    // snapshot and recovery has to walk past it.
    assert!(
        recovered_behind_kill > 0,
        "torn profile produced no damaged day boundaries — fault injection is dead"
    );
    assert!(!all_skipped.is_empty());

    // Every snapshot skipped during recovery is in the persisted ledger.
    let ledger = load_ledger(&dir);
    for skip in &all_skipped {
        assert!(
            ledger.entries.contains(skip),
            "skip of {} (day {}) missing from the recovery ledger",
            skip.file,
            skip.day
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn whole_chain_damaged_falls_back_to_fresh_start() {
    let dir = scratch("fallback");
    // Fabricate a chain where every link is garbage: recovery must
    // report "start fresh" (state: None), record every skip in the
    // ledger, and never panic.
    for day in 1..=3u32 {
        std::fs::write(
            dir.join(format!("day{day:03}.ckpt")),
            b"definitely not a snapshot",
        )
        .expect("scratch writable");
    }
    let policy = CheckpointPolicy {
        dir: dir.clone(),
        every_days: 1,
        disk_fault: DiskFaultProfile::Calm,
    };
    let recovered = recover_latest_state(&policy, CampaignConfig::default().seed, None)
        .expect("chain walk never hard-fails");
    assert!(recovered.state.is_none(), "garbage must not load");
    assert_eq!(recovered.skipped.len(), 3);
    let ledger = load_ledger(&dir);
    assert_eq!(ledger.entries.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
