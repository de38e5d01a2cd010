//! The dataset invariant auditor: structural checks that hold for every
//! campaign, regardless of seed, thread count, fault model, or payload
//! corruption.
//!
//! Byzantine-payload hardening moves failure from "the campaign crashes"
//! to "the datum is quarantined" — which is only safe if nothing damaged
//! ever *does* reach the analysis tables. The auditor is the proof
//! obligation: a suite of cross-component invariants over the assembled
//! [`Dataset`] (or the live components at a day boundary) whose
//! violations carry a typed [`AuditCode`] and the offending group key, so
//! a failure names the broken table row rather than a stack frame.
//!
//! The auditor runs in three places:
//!
//! 1. **Day boundaries, debug builds** — [`crate::study`]'s runner audits
//!    the live components after every completed study day
//!    (`debug_assertions` only; release campaigns pay nothing) and stops
//!    the campaign with
//!    [`StudyError::DayInvariants`](crate::study::StudyError::DayInvariants)
//!    naming the day.
//! 2. **Resume** — [`Campaign::resume`](crate::study::Campaign::resume)
//!    audits the restored components before continuing, so a snapshot
//!    that decodes cleanly but violates campaign invariants is refused
//!    at the boundary with
//!    [`StudyError::Invariants`](crate::study::StudyError::Invariants).
//! 3. **`repro audit <snapshot>`** — the CLI resumes a checkpoint to a
//!    full dataset and prints every violation (exit code 1 if any).

use crate::dataset::Dataset;
use crate::discovery::Discovery;
use crate::joiner::{JoinedGroup, Joiner};
use crate::monitor::{GapLedger, Monitor, ObservedStatus, TimelineStore};
use crate::quarantine::QuarantineEntry;
use std::collections::BTreeSet;

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditCode {
    /// A timeline's observation days are not strictly increasing.
    NonMonotoneTimeline,
    /// An observation follows a `Revoked` one (revocation is terminal).
    ObservationAfterRevoked,
    /// A monitored key that discovery never produced (membership must be
    /// a subset of the discovered population).
    TimelineUnknownGroup,
    /// A joined group whose invite discovery never produced.
    JoinedUnknownGroup,
    /// A gap-ledger day with no matching `Failed` observation — the gap
    /// ledger says a day is censored, the timeline disagrees.
    GapWithoutFailedObservation,
    /// A gap-ledger slot that does not resolve in the group symbol table
    /// (the ledger references a group discovery never interned).
    GapUnknownGroup,
    /// A gap ledger that is not strictly ascending (unsorted or
    /// duplicated days).
    GapLedgerNotAscending,
    /// A quarantine entry dated outside the study window.
    QuarantineDayOutOfWindow,
    /// A quarantine entry naming a group discovery never produced.
    QuarantineUnknownGroup,
    /// A joined group with collected messages but no monitor timeline —
    /// every joined group was discovered and monitored, so messages
    /// without observations mean a record went missing.
    MessagesWithoutTimeline,
}

impl AuditCode {
    /// Stable kebab-case label (CLI output, reports).
    pub fn label(self) -> &'static str {
        match self {
            AuditCode::NonMonotoneTimeline => "non-monotone-timeline",
            AuditCode::ObservationAfterRevoked => "observation-after-revoked",
            AuditCode::TimelineUnknownGroup => "timeline-unknown-group",
            AuditCode::JoinedUnknownGroup => "joined-unknown-group",
            AuditCode::GapWithoutFailedObservation => "gap-without-failed-observation",
            AuditCode::GapUnknownGroup => "gap-unknown-group",
            AuditCode::GapLedgerNotAscending => "gap-ledger-not-ascending",
            AuditCode::QuarantineDayOutOfWindow => "quarantine-day-out-of-window",
            AuditCode::QuarantineUnknownGroup => "quarantine-unknown-group",
            AuditCode::MessagesWithoutTimeline => "messages-without-timeline",
        }
    }
}

/// One broken invariant, anchored to the group it concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which invariant broke.
    pub code: AuditCode,
    /// Dedup key of the offending group (empty when the violation is not
    /// about a single group).
    pub group: String,
    /// Human-readable specifics (days, counts, entry positions).
    pub detail: String,
}

impl AuditViolation {
    fn new(code: AuditCode, group: &str, detail: String) -> AuditViolation {
        AuditViolation {
            code,
            group: group.to_string(),
            detail,
        }
    }

    /// Render as `code group: detail` for CLI output.
    pub fn render(&self) -> String {
        if self.group.is_empty() {
            format!("{}: {}", self.code.label(), self.detail)
        } else {
            format!("{} [{}]: {}", self.code.label(), self.group, self.detail)
        }
    }
}

/// Audit an assembled dataset. Returns every violation found (empty =
/// all invariants hold).
pub fn audit_dataset(ds: &Dataset) -> Vec<AuditViolation> {
    let keys = ds.interner.symbols();
    let mut out = Vec::new();
    check_timelines(&ds.timelines, keys, &mut out);
    check_gaps(&ds.gaps, &ds.timelines, keys, &mut out);
    check_quarantine(
        &ds.quarantine,
        ds.window.num_days() as u32,
        &|key| ds.slot_of_key(key),
        &mut out,
    );
    check_joined(
        &ds.joined,
        &|key| ds.slot_of_key(key),
        &ds.timelines,
        &mut out,
    );
    out
}

/// Audit the live pipeline components (day boundaries, resume). Same
/// invariants as [`audit_dataset`], evaluated before assembly.
pub fn audit_components(
    num_days: u32,
    discovery: &Discovery,
    monitor: &Monitor,
    joiner: &Joiner,
) -> Vec<AuditViolation> {
    let keys = discovery.interner().symbols();
    let mut out = Vec::new();
    check_timelines(&monitor.timelines, keys, &mut out);
    check_gaps(&monitor.gaps, &monitor.timelines, keys, &mut out);
    for ledger in [
        &discovery.quarantine,
        &monitor.quarantine,
        &joiner.quarantine,
    ] {
        check_quarantine(
            ledger,
            num_days,
            &|key| discovery.slot_of_key(key),
            &mut out,
        );
    }
    check_joined(
        &joiner.joined,
        &|key| discovery.slot_of_key(key),
        &monitor.timelines,
        &mut out,
    );
    out
}

/// The dedup key a slot resolves to in the symbol table, or a
/// `slot N` placeholder for a slot the table does not cover.
fn slot_label(keys: &[String], slot: usize) -> String {
    keys.get(slot)
        .cloned()
        .unwrap_or_else(|| format!("slot {slot}"))
}

fn check_timelines(timelines: &TimelineStore, keys: &[String], out: &mut Vec<AuditViolation>) {
    for (slot, tl) in timelines.iter() {
        let key = slot_label(keys, slot);
        if slot >= keys.len() {
            out.push(AuditViolation::new(
                AuditCode::TimelineUnknownGroup,
                &key,
                "monitored but never discovered".to_string(),
            ));
        }
        for pair in tl.days().windows(2) {
            if pair[1] <= pair[0] {
                out.push(AuditViolation::new(
                    AuditCode::NonMonotoneTimeline,
                    &key,
                    format!("day {} follows day {}", pair[1], pair[0]),
                ));
            }
        }
        if let Some(at) = tl.iter().position(|o| o.status == ObservedStatus::Revoked) {
            if at + 1 != tl.len() {
                out.push(AuditViolation::new(
                    AuditCode::ObservationAfterRevoked,
                    &key,
                    format!(
                        "{} observation(s) after revocation on day {}",
                        tl.len() - at - 1,
                        tl.days()[at]
                    ),
                ));
            }
        }
    }
}

fn check_gaps(
    gaps: &GapLedger,
    timelines: &TimelineStore,
    keys: &[String],
    out: &mut Vec<AuditViolation>,
) {
    for (slot, days) in gaps.iter() {
        let key = slot_label(keys, slot);
        if slot >= keys.len() {
            out.push(AuditViolation::new(
                AuditCode::GapUnknownGroup,
                &key,
                "gap ledger references a group outside the symbol table".to_string(),
            ));
        }
        if days.windows(2).any(|w| w[1] <= w[0]) {
            out.push(AuditViolation::new(
                AuditCode::GapLedgerNotAscending,
                &key,
                format!("{days:?}"),
            ));
        }
        let failed_days: BTreeSet<u32> = timelines
            .get(slot)
            .map(|tl| {
                tl.iter()
                    .filter(|o| o.status == ObservedStatus::Failed)
                    .map(|o| o.day)
                    .collect()
            })
            .unwrap_or_default();
        for day in days {
            if !failed_days.contains(day) {
                out.push(AuditViolation::new(
                    AuditCode::GapWithoutFailedObservation,
                    &key,
                    format!("gap day {day} has no Failed observation"),
                ));
            }
        }
    }
}

fn check_quarantine(
    ledger: &[QuarantineEntry],
    num_days: u32,
    slot_of: &dyn Fn(&str) -> Option<usize>,
    out: &mut Vec<AuditViolation>,
) {
    for entry in ledger {
        if entry.day >= num_days {
            out.push(AuditViolation::new(
                AuditCode::QuarantineDayOutOfWindow,
                &entry.group,
                format!(
                    "{} entry dated day {} in a {}-day window",
                    entry.code.label(),
                    entry.day,
                    num_days
                ),
            ));
        }
        if !entry.group.is_empty() && slot_of(&entry.group).is_none() {
            out.push(AuditViolation::new(
                AuditCode::QuarantineUnknownGroup,
                &entry.group,
                format!("{} entry for an undiscovered group", entry.code.label()),
            ));
        }
    }
}

fn check_joined(
    joined: &[JoinedGroup],
    slot_of: &dyn Fn(&str) -> Option<usize>,
    timelines: &TimelineStore,
    out: &mut Vec<AuditViolation>,
) {
    for jg in joined {
        let slot = slot_of(&jg.key);
        if slot.is_none() {
            out.push(AuditViolation::new(
                AuditCode::JoinedUnknownGroup,
                &jg.key,
                "joined but never discovered".to_string(),
            ));
        }
        if !jg.messages.is_empty() && slot.and_then(|s| timelines.get(s)).is_none() {
            out.push(AuditViolation::new(
                AuditCode::MessagesWithoutTimeline,
                &jg.key,
                format!("{} message(s) but no monitor timeline", jg.messages.len()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::GroupTimeline;
    use crate::study::{run_study_with, CampaignConfig};
    use chatlens_simnet::fault::CorruptionProfile;
    use chatlens_workload::ScenarioConfig;

    // Built by direct field access: the auditor exists to catch shapes
    // the public `push` API refuses to construct.
    fn timeline(days: &[(u32, ObservedStatus)]) -> GroupTimeline {
        GroupTimeline {
            days: days.iter().map(|&(d, _)| d).collect(),
            statuses: days.iter().map(|&(_, s)| s).collect(),
            ..GroupTimeline::default()
        }
    }

    fn store(slot: u32, tl: GroupTimeline) -> TimelineStore {
        TimelineStore::from_entries(vec![(slot, tl)])
    }

    const ALIVE: ObservedStatus = ObservedStatus::Alive {
        size: 10,
        online: 1,
    };

    #[test]
    fn monotone_and_terminal_violations_are_detected() {
        let keys = vec!["g1".to_string()];
        let mut out = Vec::new();
        check_timelines(
            &store(0, timeline(&[(3, ALIVE), (3, ALIVE)])),
            &keys,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, AuditCode::NonMonotoneTimeline);

        out.clear();
        check_timelines(
            &store(
                0,
                timeline(&[(1, ALIVE), (2, ObservedStatus::Revoked), (3, ALIVE)]),
            ),
            &keys,
            &mut out,
        );
        assert_eq!(out[0].code, AuditCode::ObservationAfterRevoked);
        assert_eq!(out[0].group, "g1");
    }

    #[test]
    fn membership_must_be_subset_of_population() {
        // A timeline at a slot the symbol table does not cover.
        let mut out = Vec::new();
        check_timelines(&store(0, timeline(&[(0, ALIVE)])), &[], &mut out);
        assert_eq!(out[0].code, AuditCode::TimelineUnknownGroup);
        assert_eq!(out[0].group, "slot 0");
    }

    #[test]
    fn gap_days_need_failed_observations() {
        let keys = vec!["g".to_string()];
        let timelines = store(0, timeline(&[(0, ALIVE), (1, ObservedStatus::Failed)]));
        let mut gaps = GapLedger::new();
        gaps.push(0, 1);
        gaps.push(0, 2);
        let mut out = Vec::new();
        check_gaps(&gaps, &timelines, &keys, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, AuditCode::GapWithoutFailedObservation);
        assert_eq!(out[0].group, "g");
        assert!(out[0].detail.contains("day 2"));

        // An out-of-order ledger, built behind the API's ascending guard.
        let gaps = GapLedger {
            slots: vec![vec![2, 1]],
        };
        out.clear();
        check_gaps(&gaps, &timelines, &keys, &mut out);
        assert!(out
            .iter()
            .any(|v| v.code == AuditCode::GapLedgerNotAscending));
    }

    #[test]
    fn gap_slots_must_resolve_in_the_symbol_table() {
        // Slot 3 has censored days but the interner only knows one group:
        // the ledger references a group that was never interned.
        let keys = vec!["g".to_string()];
        let mut gaps = GapLedger::new();
        gaps.push(3, 7);
        let mut out = Vec::new();
        check_gaps(&gaps, &TimelineStore::new(), &keys, &mut out);
        let codes: Vec<AuditCode> = out.iter().map(|v| v.code).collect();
        assert!(codes.contains(&AuditCode::GapUnknownGroup), "{out:?}");
        assert!(out.iter().any(|v| v.group == "slot 3"));
    }

    #[test]
    fn quarantine_provenance_is_checked() {
        let entry = QuarantineEntry {
            service: "whatsapp".to_string(),
            endpoint: "whatsapp/landing?code=x".to_string(),
            group: "wa:x".to_string(),
            day: 40,
            code: crate::quarantine::QuarantineCode::MissingField,
            detail: "missing".to_string(),
            body: String::new(),
        };
        let mut out = Vec::new();
        check_quarantine(&[entry], 38, &|_| None, &mut out);
        let codes: Vec<AuditCode> = out.iter().map(|v| v.code).collect();
        assert!(codes.contains(&AuditCode::QuarantineDayOutOfWindow));
        assert!(codes.contains(&AuditCode::QuarantineUnknownGroup));
    }

    #[test]
    fn hostile_campaign_passes_the_full_audit() {
        let campaign = CampaignConfig {
            corruption: CorruptionProfile::Hostile,
            ..CampaignConfig::default()
        };
        let ds = run_study_with(ScenarioConfig::tiny(), campaign);
        let violations = audit_dataset(&ds);
        assert!(violations.is_empty(), "{violations:#?}");
        assert!(
            !ds.quarantine.is_empty(),
            "a hostile run must quarantine something"
        );
    }
}
