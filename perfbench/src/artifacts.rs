//! What `repro all --csv <dir>` does after the campaign, in-process: the
//! public analysis calls behind each table, figure and the CSV export, in
//! the CLI's order, one span per artifact. Printing, plotting and the
//! paper-vs-measured scorecard are left out; they cost little next to the
//! analyses. The CSV files are written for real, so the traced run can
//! check them against the ones `repro` wrote.

use crate::traced::Tracer;
use chatlens::analysis::{
    content, discovery, lifecycle, membership, messages, pii, topics, LdaConfig,
};
use chatlens::checkpoint::{RealVfs, Vfs};
use chatlens::core::Dataset;
use chatlens::perspective::score_dataset;
use chatlens::platforms::id::PlatformKind;
use chatlens::report::series::{days_csv, to_csv};
use chatlens::simnet::par::Pool;
use chatlens::twitter::Lang;
use chatlens::workload::Vocabulary;
use std::hint::black_box;
use std::path::Path;

const PLATFORMS: [PlatformKind; 3] = PlatformKind::ALL;

/// Prefix of every artifact span.
pub const SPAN_PREFIX: &str = "artifact.";

/// The analyses of `repro all`, then its CSV export into `csv_dir`.
pub fn repro_all(
    t: &mut Tracer,
    ds: &Dataset,
    pool: &Pool,
    threads: usize,
    csv_dir: &Path,
) -> Result<(), String> {
    t.span("artifact.table2", true, || {
        for kind in PLATFORMS {
            black_box(ds.summary(kind));
        }
        black_box(ds.totals());
    });
    t.span("artifact.fig1", true, || {
        black_box(discovery::daily_discovery_all(ds, pool))
    });
    t.span("artifact.fig2", true, || {
        black_box(discovery::tweets_per_url_all(ds, pool))
    });
    t.span("artifact.fig3", true, || {
        for kind in PLATFORMS {
            black_box(content::platform_features(ds, kind));
        }
        black_box(content::control_features(ds));
    });
    t.span("artifact.fig4", true, || {
        for kind in PLATFORMS {
            black_box(content::language_shares(ds, kind));
            black_box(content::language_share(ds, kind, Lang::En));
        }
        black_box(content::language_share(ds, PlatformKind::Discord, Lang::Ja));
        black_box(content::language_share(
            ds,
            PlatformKind::Telegram,
            Lang::Ar,
        ));
    });
    t.span("artifact.table3", true, || {
        let lda = LdaConfig {
            k: 10,
            iterations: 60,
            seed: 3,
            threads,
            ..LdaConfig::default()
        };
        let vocab = Vocabulary::build();
        for kind in PLATFORMS {
            let analysis = topics::analyze_topics(ds, kind, &vocab, lda);
            black_box(topics::share_by_label(&analysis));
        }
        let vocab = Vocabulary::build();
        let dc = topics::analyze_topics(ds, PlatformKind::Discord, &vocab, lda);
        black_box(topics::share_by_label(&dc));
    });
    t.span("artifact.fig5", true, || {
        black_box(lifecycle::staleness_days_all(ds, pool))
    });
    t.span("artifact.fig6", true, || {
        black_box(lifecycle::revocation_stats_all(ds, pool))
    });
    t.span("artifact.fig7", true, || {
        for kind in PLATFORMS {
            black_box(membership::member_counts(ds, kind));
        }
        for kind in PLATFORMS {
            black_box(membership::member_counts(ds, kind));
            black_box(membership::online_fractions(ds, kind));
            black_box(membership::growth(ds, kind));
        }
        for kind in PLATFORMS {
            black_box(membership::member_counts(ds, kind));
        }
    });
    t.span("artifact.fig8", true, || {
        for kind in PLATFORMS {
            black_box(messages::kind_shares(ds, kind));
        }
        black_box(messages::kind_shares(ds, PlatformKind::WhatsApp));
        black_box(messages::multimedia_share(ds, PlatformKind::WhatsApp));
    });
    t.span("artifact.fig9", true, || {
        black_box(messages::msgs_per_group_day_all(ds, pool));
        black_box(messages::user_activity_all(ds, pool));
    });
    t.span("artifact.table4", true, || {
        black_box(pii::exposure_table_par(ds, pool))
    });
    t.span("artifact.table5", true, || {
        black_box(pii::linked_accounts_table(ds))
    });
    t.span("artifact.extras", true, || {
        for kind in PLATFORMS {
            black_box(membership::creators(ds, kind));
        }
        black_box(membership::creators(ds, PlatformKind::WhatsApp));
        black_box(membership::whatsapp_countries(ds));
        for kind in PLATFORMS {
            black_box(messages::active_member_share(ds, kind));
        }
    });
    t.span("artifact.extensions", true, || {
        black_box(discovery::cross_platform_tweets(ds));
        let vocab = Vocabulary::build();
        for (kind, lang) in [
            (PlatformKind::WhatsApp, Lang::Es),
            (PlatformKind::Telegram, Lang::Es),
            (PlatformKind::WhatsApp, Lang::Pt),
        ] {
            let lda = LdaConfig {
                k: 8,
                iterations: 60,
                seed: 13,
                threads,
                ..LdaConfig::default()
            };
            if let Some(analysis) = topics::analyze_topics_lang(ds, kind, lang, &vocab, lda) {
                black_box(topics::share_by_label(&analysis));
            }
        }
        black_box(score_dataset(ds, &vocab, 50.0));
    });
    t.span("artifact.csv", true, || export_csv(ds, pool, csv_dir))
        .map_err(|e| format!("CSV export: {e}"))
}

/// The figure series `repro all --csv` writes, file for file.
fn export_csv(
    ds: &Dataset,
    pool: &Pool,
    dir: &Path,
) -> Result<(), chatlens::checkpoint::CheckpointError> {
    let mut vfs = RealVfs;
    vfs.create_dir_all(dir)?;
    let mut write = |name: String, body: String| vfs.write_atomic(&dir.join(name), body.as_bytes());
    let daily = discovery::daily_discovery_all(ds, pool);
    let per_url = discovery::tweets_per_url_all(ds, pool);
    let staleness = lifecycle::staleness_days_all(ds, pool);
    let revocations = lifecycle::revocation_stats_all(ds, pool);
    for kind in PLATFORMS {
        let tag = kind.name().to_lowercase();
        let i = kind.index();
        let d = daily[i].clone();
        write(
            format!("fig1_{tag}.csv"),
            days_csv(&["all", "unique", "new"], &[d.all, d.unique, d.new]),
        )?;
        write(
            format!("fig2_tweets_per_url_{tag}.csv"),
            to_csv(("tweets_per_url", "cdf"), &per_url[i].series()),
        )?;
        write(
            format!("fig5_staleness_{tag}.csv"),
            to_csv(("age_days", "cdf"), &staleness[i].series()),
        )?;
        let r = &revocations[i];
        write(
            format!("fig6_lifetime_{tag}.csv"),
            to_csv(("days_accessible", "cdf"), &r.lifetime_days.series()),
        )?;
        let revoked: Vec<(f64, f64)> = r
            .revoked_per_day
            .iter()
            .enumerate()
            .map(|(d, &v)| (d as f64, v))
            .collect();
        write(
            format!("fig6_revoked_per_day_{tag}.csv"),
            to_csv(("day", "revoked_share"), &revoked),
        )?;
        write(
            format!("fig7_members_{tag}.csv"),
            to_csv(
                ("members", "cdf"),
                &membership::member_counts(ds, kind).series(),
            ),
        )?;
        write(
            format!("fig7_online_{tag}.csv"),
            to_csv(
                ("online_fraction", "cdf"),
                &membership::online_fractions(ds, kind).series(),
            ),
        )?;
        write(
            format!("fig7_growth_{tag}.csv"),
            to_csv(
                ("delta_members", "cdf"),
                &membership::growth(ds, kind).deltas.series(),
            ),
        )?;
        write(
            format!("fig9_msgs_per_group_day_{tag}.csv"),
            to_csv(
                ("msgs_per_day", "cdf"),
                &messages::msgs_per_group_day(ds, kind).series(),
            ),
        )?;
        write(
            format!("fig9_msgs_per_user_{tag}.csv"),
            to_csv(
                ("msgs_per_user", "cdf"),
                &messages::user_activity(ds, kind).volumes.series(),
            ),
        )?;
    }
    Ok(())
}
