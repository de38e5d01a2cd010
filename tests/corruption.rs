//! Byzantine-payload hardening: the collectors must survive arbitrary
//! in-flight body corruption — no panic, no corrupted datum in any
//! analysis table, every rejection quarantined with provenance — and a
//! hostile campaign must stay bit-identical across thread counts and
//! across a day-boundary kill/resume.

use chatlens::core::quarantine::{QuarantineCode, QuarantineEntry};
use chatlens::core::{audit_dataset, CoreError};
use chatlens::platforms::invite::parse_invite_url;
use chatlens::platforms::phone::parse_e164;
use chatlens::platforms::service::parse_message;
use chatlens::platforms::wire::WireDoc;
use chatlens::simnet::fault::{CorruptionProfile, CorruptionSchedule};
use chatlens::simnet::rng::Rng;
use chatlens::simnet::transport::Request;
use chatlens::twitter::Tweet;
use chatlens::{run_study_with, CampaignConfig, ScenarioConfig};

/// Render a realistic service body: one of the document shapes the
/// simulated platforms actually serve, with RNG-driven content.
fn realistic_body(rng: &mut Rng) -> String {
    match rng.index(4) {
        0 => {
            let mut doc = WireDoc::new("tw-search").field("query", "chat.whatsapp.com");
            for i in 0..rng.index(6) {
                doc = doc.field("tweet", format!("{}|{}|text {i}", rng.index(1 << 20), i));
            }
            doc.render()
        }
        1 => WireDoc::new("wa-landing")
            .field("code", format!("INV{}", rng.index(100_000)))
            .field("size", rng.index(257))
            .field("title", "Group Chat")
            .render(),
        2 => {
            let mut doc = WireDoc::new("tg-history").field("group", rng.index(10_000));
            for _ in 0..rng.index(8) {
                doc = doc.field(
                    "msg",
                    format!("{}|{}|text", rng.index(1 << 30), rng.index(500)),
                );
            }
            doc.render()
        }
        _ => WireDoc::new("dc-invite")
            .field("code", format!("dG{}", rng.index(100_000)))
            .field("approximate_member_count", rng.index(5_000))
            .field("online", rng.index(500))
            .render(),
    }
}

/// 10 000 deterministically corrupted bodies through every parse entry
/// point in the workspace. The contract: nothing panics, every rejection
/// is a *typed* error that classifies into a quarantine code, and a
/// provenance-tagged [`QuarantineEntry`] can be filed for it.
#[test]
fn ten_thousand_corrupted_bodies_never_panic() {
    let schedule = CorruptionSchedule::new(1.0);
    let mut rng = Rng::new(0x00B1_2A27_2026);
    let mut prev_ok: Option<String> = None;
    let (mut rejected, mut survived) = (0u32, 0u32);
    for day in 0..10_000u32 {
        let clean = realistic_body(&mut rng);
        let (body, _kind) = schedule.corrupt_body(&clean, prev_ok.as_deref(), &mut rng);
        // Every parse entry point must return, not unwind.
        let _ = WireDoc::parse(&body);
        let _ = Tweet::decode(&body);
        let _ = parse_message(&body);
        let _ = parse_invite_url(&body);
        let _ = parse_e164(&body);
        match WireDoc::parse_as(&body, "tw-search") {
            Ok(_) => survived += 1,
            Err(err) => {
                rejected += 1;
                // A rejection carries everything the quarantine ledger
                // needs: a typed code and full provenance.
                let core_err = CoreError::Wire(err);
                assert!(!QuarantineCode::of(&core_err).label().is_empty());
                let req = Request::new("twitter/search").with("page", "1");
                let entry = QuarantineEntry::new("twitter", &req, "", day % 38, &core_err, &body);
                assert_eq!(entry.service, "twitter");
                assert!(entry.endpoint.starts_with("twitter/search?"));
                assert!(!entry.detail.is_empty());
                assert!(entry.body.len() <= chatlens::core::quarantine::MAX_QUARANTINED_BODY);
            }
        }
        prev_ok = Some(clean);
    }
    // The mutation kinds are damaging by construction, but a truncated or
    // key-dropped document can still scan — both branches must be live.
    assert!(rejected > 5_000, "only {rejected} of 10000 rejected");
    assert!(survived > 0, "no corrupted body survived parsing");
}

/// The zero-copy borrowing parser and the owning parser agree on every
/// one of the 10 000 corrupted bodies: same accept/reject decision, the
/// exact same typed error (hence the same quarantine code), and
/// field-for-field identical content on acceptance. Borrowed slices are
/// exercised *after* further corruption-RNG work touches other buffers,
/// so a dangling-slice bug would surface as garbage content here.
#[test]
fn borrowing_parser_matches_owning_parser_on_corrupted_bodies() {
    let schedule = CorruptionSchedule::new(1.0);
    let mut rng = Rng::new(0x00B1_2A27_2026);
    let mut prev_ok: Option<String> = None;
    let mut agreed_ok = 0u32;
    for _ in 0..10_000u32 {
        let clean = realistic_body(&mut rng);
        let (body, _kind) = schedule.corrupt_body(&clean, prev_ok.as_deref(), &mut rng);
        match (WireDoc::parse(&body), WireDoc::parse_owned(&body)) {
            (Ok(view), Ok(doc)) => {
                assert!(view == doc, "borrowed and owned parses disagree");
                assert_eq!(view.kind, doc.kind);
                assert_eq!(view.len(), doc.len());
                agreed_ok += 1;
            }
            (Err(a), Err(b)) => {
                let (code_a, code_b) = (
                    QuarantineCode::of(&CoreError::Wire(a.clone())),
                    QuarantineCode::of(&CoreError::Wire(b.clone())),
                );
                assert_eq!(a, b, "borrowed and owned parse errors disagree");
                assert_eq!(code_a, code_b, "quarantine codes disagree");
            }
            (view, owned) => {
                panic!("parsers disagree on accept/reject: borrowed={view:?} owned={owned:?}")
            }
        }
        prev_ok = Some(clean);
    }
    assert!(agreed_ok > 0, "no body parsed under both parsers");
}

fn hostile_campaign() -> CampaignConfig {
    CampaignConfig {
        corruption: CorruptionProfile::Hostile,
        ..CampaignConfig::default()
    }
}

/// End-to-end accounting under hostile corruption: the campaign
/// completes, every rejected body is in the quarantine ledger with
/// provenance, the ledger agrees with the transport's corruption
/// counter, and the dataset passes the full invariant audit.
#[test]
fn hostile_run_quarantines_every_rejected_body() {
    let ds = run_study_with(ScenarioConfig::at_scale(0.002), hostile_campaign());
    let corrupted = ds.metrics.get("transport.corrupted");
    assert!(corrupted > 0, "hostile corruption must actually bite");
    assert!(!ds.quarantine.is_empty());
    assert_eq!(
        ds.metrics.get("quarantine.entries"),
        ds.quarantine.len() as u64
    );
    let num_days = 38u32;
    for e in &ds.quarantine {
        assert!(
            ["twitter", "whatsapp", "telegram", "discord"].contains(&e.service.as_str()),
            "unknown service {:?}",
            e.service
        );
        assert!(!e.endpoint.is_empty(), "entry without an endpoint");
        assert!(e.day < num_days, "day {} outside the window", e.day);
        assert!(!e.detail.is_empty(), "entry without an error detail");
    }
    // Collectors re-fetch once per rejection, so the ledger can exceed
    // the corruption count only via unlucky double corruption — never
    // the other way: every ledger entry traces to a corrupted body.
    assert!(ds.quarantine.len() as u64 <= 2 * corrupted);
    // The hardening contract: nothing corrupted reached a table.
    let violations = audit_dataset(&ds);
    assert!(violations.is_empty(), "audit found: {:?}", violations);
}

/// A hostile campaign is a pure function of (seed, config): bit-identical
/// at 1, 2 and 8 worker threads, and across a kill at a day boundary
/// followed by a resume — quarantine ledger and corruption RNG included.
#[test]
fn hostile_run_is_bit_identical_across_threads_and_resume() {
    use chatlens::checkpoint::load_from_file;
    use chatlens::core::{Campaign, CampaignState, CheckpointPolicy};
    let small = ScenarioConfig::at_scale(0.002);
    let mut reference = run_study_with(small.clone(), hostile_campaign());
    reference.metrics.strip_wall_clock();
    assert!(reference.metrics.get("transport.corrupted") > 0);

    for threads in [2usize, 8] {
        let mut ds = run_study_with(
            small.clone(),
            CampaignConfig {
                threads,
                ..hostile_campaign()
            },
        );
        ds.metrics.strip_wall_clock();
        assert_eq!(ds, reference, "hostile run at {threads} thread(s) diverged");
    }

    let dir = std::env::temp_dir().join(format!("chatlens-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Campaign::new(hostile_campaign())
        .checkpoint(&CheckpointPolicy::daily(dir.clone()))
        .run(small)
        .expect("snapshots save");
    for threads in [1usize, 2, 8] {
        let mut state: CampaignState =
            load_from_file(&dir.join("day019.ckpt")).expect("snapshot loads");
        state.campaign.threads = threads;
        let mut resumed = Campaign::new(state.campaign)
            .resume(&state)
            .expect("resume completes")
            .into_dataset()
            .expect("dataset");
        resumed.metrics.strip_wall_clock();
        assert_eq!(
            resumed, reference,
            "hostile resume at {threads} thread(s) diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
