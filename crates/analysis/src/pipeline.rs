//! The analysis pipeline: one batch and one incremental path to the same
//! report bytes.
//!
//! Every results-section module in this crate ships two entry points:
//!
//! * a **batch fragment** — `fragment(ds, pool)`, a pure function of the
//!   final [`Dataset`] producing a canonical text rendering of that
//!   section's artifacts; and
//! * an **incremental fold** — a [`DayFold`] implementation that
//!   maintains a compact per-day state over the campaign's day loop and
//!   renders the *same bytes* from folded state alone at `finish`.
//!
//! [`standard_folds`] registers every fold in canonical order and
//! [`batch_fragments`] computes the matching batch renderings;
//! `tests/fold_parity.rs` locks the two paths byte-for-byte across
//! thread counts, fault/corruption profiles, and kill/resume.
//!
//! # Writing a custom fold
//!
//! A fold sees one borrowed [`DaySlice`](chatlens_core::DaySlice) per
//! completed study day and must be able to round-trip its state through
//! the checkpoint codec:
//!
//! ```
//! use chatlens_checkpoint::{CheckpointError, Persist, Reader, Writer};
//! use chatlens_core::{DayFold, DaySlice, FoldDriver};
//! use chatlens_simnet::par::Pool;
//!
//! /// Counts collected tweets per study day.
//! struct TweetVolume {
//!     per_day: Vec<u64>,
//! }
//!
//! impl DayFold for TweetVolume {
//!     fn name(&self) -> &'static str {
//!         "tweet_volume"
//!     }
//!     fn fold_day(&mut self, slice: &DaySlice<'_>) {
//!         self.per_day.push(slice.tweets_today().len() as u64);
//!     }
//!     fn finish(&self, _pool: &Pool) -> String {
//!         format!("tweets_per_day: {:?}\n", self.per_day)
//!     }
//!     fn save_state(&self, w: &mut Writer) {
//!         self.per_day.save(w);
//!     }
//!     fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
//!         self.per_day = Persist::load(r)?;
//!         Ok(())
//!     }
//! }
//!
//! let fold = TweetVolume { per_day: Vec::new() };
//! let mut driver = FoldDriver::new(vec![Box::new(fold)], 1);
//! let scenario = chatlens_workload::ScenarioConfig::tiny();
//! let ds = chatlens_core::Campaign::new(Default::default())
//!     .folds(&mut driver)
//!     .run(scenario)
//!     .unwrap()
//!     .into_dataset()
//!     .unwrap();
//! let outcome = driver.finish();
//! let rendered = outcome.fragment("tweet_volume").unwrap();
//! assert!(rendered.starts_with("tweets_per_day: ["));
//! // The folded per-day series matches post-hoc slicing of the dataset.
//! let day0 = ds.day_slice(0).unwrap().tweets_today().len();
//! assert!(rendered.contains(&format!("[{day0}, ")));
//! ```

use crate::lda::LdaConfig;
use crate::stats::Ecdf;
use chatlens_core::{Dataset, DayFold};
use chatlens_simnet::hash::sha256_hex;
use chatlens_simnet::par::Pool;

/// Every standard analysis fold, in canonical registration order —
/// the order [`batch_fragments`] uses and the order fold state is filed
/// in the snapshot ledger.
pub fn standard_folds() -> Vec<Box<dyn DayFold>> {
    vec![
        Box::new(crate::discovery::DiscoveryFold::new()),
        Box::new(crate::content::ContentFold::new()),
        Box::new(crate::membership::MembershipFold::new()),
        Box::new(crate::lifecycle::LifecycleFold::new()),
        Box::new(crate::messages::MessagesFold::new()),
        Box::new(crate::pii::PiiFold::new()),
        Box::new(crate::topics::TopicsFold::new()),
        Box::new(crate::stats::StatsFold::new()),
    ]
}

/// The batch renderings of every standard analysis, in the same order
/// and under the same names as [`standard_folds`]. Each fragment is a
/// pure function of the final dataset; the incremental path must
/// reproduce these bytes exactly.
pub fn batch_fragments(ds: &Dataset, pool: &Pool) -> Vec<(&'static str, String)> {
    vec![
        ("discovery", crate::discovery::fragment(ds, pool)),
        ("content", crate::content::fragment(ds, pool)),
        ("membership", crate::membership::fragment(ds, pool)),
        ("lifecycle", crate::lifecycle::fragment(ds, pool)),
        ("messages", crate::messages::fragment(ds, pool)),
        ("pii", crate::pii::fragment(ds, pool)),
        ("topics", crate::topics::fragment(ds, pool)),
        ("stats", crate::stats::fragment(ds, pool)),
    ]
}

/// The LDA settings both report paths fit Table 3 with: small enough to
/// keep the report stage fast, fixed seed so the fitted model is a pure
/// function of the corpus.
pub fn report_lda_config() -> LdaConfig {
    LdaConfig {
        k: 6,
        iterations: 25,
        seed: 7,
        ..LdaConfig::default()
    }
}

/// Canonical one-line rendering of an ECDF: headline quantiles plus a
/// SHA-256 over the full `(x, F(x))` series, so two ECDFs render equal
/// bytes iff they hold the same sample multiset.
pub fn ecdf_stats(e: &Ecdf) -> String {
    let series = format!("{:?}", e.series());
    format!(
        "n={} min={:?} q10={:?} q25={:?} median={:?} q75={:?} q90={:?} q99={:?} max={:?} mean={:?} sha256={}",
        e.len(),
        e.min(),
        e.quantile(0.10),
        e.quantile(0.25),
        e.median(),
        e.quantile(0.75),
        e.quantile(0.90),
        e.quantile(0.99),
        e.max(),
        e.mean(),
        sha256_hex(series.as_bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_registry_matches_batch_registry() {
        let folds = standard_folds();
        let ds = chatlens_core::run_study(chatlens_workload::ScenarioConfig::tiny());
        let pool = Pool::new(1);
        let fragments = batch_fragments(&ds, &pool);
        assert_eq!(folds.len(), fragments.len());
        for (fold, (name, _)) in folds.iter().zip(&fragments) {
            assert_eq!(fold.name(), *name);
        }
    }

    #[test]
    fn ecdf_stats_locks_the_sample_multiset() {
        let a = Ecdf::from_ints([1, 2, 2, 9]);
        let b = Ecdf::from_ints([9, 2, 1, 2]);
        let c = Ecdf::from_ints([1, 2, 3, 9]);
        assert_eq!(ecdf_stats(&a), ecdf_stats(&b), "order-insensitive");
        assert_ne!(ecdf_stats(&a), ecdf_stats(&c), "value-sensitive");
    }
}
