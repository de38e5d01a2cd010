//! # chatlens-core — the paper's measurement pipeline
//!
//! This crate is the reproduction's primary artifact: the data-collection
//! system of §3, pointed at the simulated ecosystem instead of the live
//! platforms. It implements, as separate event-driven components sharing
//! one virtual timeline:
//!
//! 1. **Discovery** ([`discovery`]) — hourly Search API queries for the six
//!    invite-URL patterns (7-day lookback, `since_id` incremental,
//!    paginated) merged with the Streaming API, plus the 1% control
//!    sample. URL extraction *validates* every URL; a `discord.com` link
//!    without `/invite/` is noise, not a group.
//! 2. **Monitoring** ([`monitor`]) — once per day, for every discovered and
//!    not-yet-revoked group, scrape the WhatsApp landing page / Telegram
//!    web page / Discord invite API for title, size, online count and
//!    status. WhatsApp landing pages leak the creator's phone number; the
//!    monitor hashes it immediately (§3.4).
//! 3. **Joining** ([`joiner`]) — join a uniform random sample of live
//!    groups under each platform's constraints (WhatsApp account bans
//!    force multiple accounts; Discord rejects bots so a user account is
//!    used; Telegram's API flood control throttles everything), then
//!    collect member lists, user profiles and message histories.
//! 4. **PII accounting** ([`pii`]) — §6's exposure bookkeeping: hashed
//!    phone numbers with country codes, Telegram opt-in phones, Discord
//!    connected accounts.
//!
//! [`study::run_study`] wires the components to a
//! [`chatlens_simnet::Engine`] and runs the full 38-day campaign,
//! returning the [`dataset::Dataset`] every analysis in
//! `chatlens-analysis` consumes.
//!
//! Long campaigns are crash-safe: a [`study::Campaign`] with a
//! checkpoint policy snapshots the full campaign state
//! ([`state::CampaignState`]) at day boundaries via `chatlens-checkpoint`,
//! and [`study::Campaign::resume`] continues from a snapshot to a
//! byte-identical dataset. The same builder adds a memory budget,
//! incremental folds and a halt day.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod budget;
pub mod dataset;
pub mod discovery;
pub mod error;
pub mod fold;
pub mod intern;
pub mod joiner;
pub mod monitor;
pub mod net;
pub mod patterns;
pub mod pii;
pub mod quarantine;
pub mod state;
pub mod study;

pub use audit::{audit_dataset, AuditCode, AuditViolation};
pub use budget::{BudgetError, BudgetLimit, BudgetPolicy, BudgetStats, MemoryBudget, SpillableLog};
pub use dataset::Dataset;
pub use error::CoreError;
pub use fold::{DayFold, DayMark, DayParts, DaySlice, FoldDriver, FoldLedger, FoldOutcome};
pub use intern::{Interner, Sym};
pub use state::{CampaignState, SnapshotSummary};
pub use study::{
    recover_latest_state, resume_study_budgeted, run_study, run_study_days_budgeted,
    run_study_with, BudgetedRun, Campaign, CampaignConfig, CampaignEvent, CheckpointPolicy,
    RunOutcome, StudyError,
};
