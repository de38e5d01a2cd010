//! The scoring client: pushes collected tweets through the analyzer and
//! aggregates per-platform toxicity reports.

use crate::lexicon::ToxicityLexicon;
use crate::service::PerspectiveService;
use chatlens_core::Dataset;
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::wire::WireDoc;
use chatlens_simnet::time::SimDuration;
use chatlens_simnet::transport::{Client, Request, Router, Status};
use chatlens_twitter::Lang;
use chatlens_workload::Vocabulary;

/// Per-platform toxicity roll-up over the English sharing tweets.
#[derive(Debug, Clone)]
pub struct ToxicityReport {
    /// Platform measured.
    pub platform: PlatformKind,
    /// Tweets scored.
    pub scored: u64,
    /// Mean toxicity probability.
    pub mean: f64,
    /// Share of tweets above the 0.5 "likely toxic" threshold.
    pub toxic_share: f64,
    /// 90th-percentile score.
    pub p90: f64,
}

/// Score every English sharing tweet of every platform through the
/// Perspective-style API (paced at the service's QPS so the quota never
/// rejects), returning one report per platform.
///
/// Scoring goes over the wire on purpose: the future-work experiment is
/// about driving an external rate-limited API from the collection
/// pipeline, not about calling a local function.
pub fn score_dataset(ds: &Dataset, vocab: &Vocabulary, qps: f64) -> Vec<ToxicityReport> {
    let start = ds.window.start_time();
    let mut service = PerspectiveService::new(ToxicityLexicon::build(vocab), qps, start);
    let mut client = Client::plain(0x70C5, start);
    let mut reports = Vec::new();
    // Pace one request per 1/qps seconds of virtual time.
    let step = SimDuration::secs((1.0 / qps).ceil().max(1.0) as u64);
    let mut cursor = start;
    for kind in PlatformKind::ALL {
        let mut scores: Vec<f64> = Vec::new();
        for ct in ds.tweets_of(kind) {
            if ct.tweet.lang != Lang::En {
                continue;
            }
            cursor += step;
            let tokens: Vec<String> = ct.tweet.tokens.iter().map(u16::to_string).collect();
            let req = Request::new("perspective/analyze").with("tokens", tokens.join(" "));
            let mut router = Router::new();
            router.mount("perspective", &mut service);
            let Ok(resp) = client.call(&mut router, cursor, &req) else {
                continue;
            };
            if resp.status != Status::Ok {
                continue;
            }
            let Ok(doc) = WireDoc::parse_as(&resp.body, "px-score") else {
                continue;
            };
            if let Ok(score) = doc.req("toxicity").unwrap_or("0").parse::<f64>() {
                scores.push(score);
            }
        }
        scores.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = scores.len().max(1) as f64;
        let mean = scores.iter().sum::<f64>() / n;
        let toxic = scores.iter().filter(|&&s| s > 0.5).count() as f64 / n;
        let p90 = scores
            .get(((scores.len() as f64) * 0.9) as usize)
            .copied()
            .unwrap_or(0.0);
        reports.push(ToxicityReport {
            platform: kind,
            scored: scores.len() as u64,
            mean,
            toxic_share: toxic,
            p90,
        });
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_core::run_study;
    use chatlens_workload::ScenarioConfig;
    use std::sync::OnceLock;

    fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| run_study(ScenarioConfig::tiny()))
    }

    #[test]
    fn telegram_is_the_most_toxic_platform() {
        // §4: Telegram's sex topics are 23% of its English tweets; Discord
        // has hentai servers (9%); WhatsApp is money-and-crypto spam. The
        // future-work experiment should find exactly that ordering.
        let vocab = Vocabulary::build();
        let reports = score_dataset(dataset(), &vocab, 50.0);
        assert_eq!(reports.len(), 3);
        let by = |k: PlatformKind| {
            reports
                .iter()
                .find(|r| r.platform == k)
                .expect("report present")
        };
        let wa = by(PlatformKind::WhatsApp);
        let tg = by(PlatformKind::Telegram);
        let dc = by(PlatformKind::Discord);
        assert!(wa.scored > 100 && tg.scored > 100 && dc.scored > 100);
        assert!(
            tg.toxic_share > dc.toxic_share,
            "TG {} vs DC {}",
            tg.toxic_share,
            dc.toxic_share
        );
        assert!(
            dc.toxic_share > wa.toxic_share,
            "DC {} vs WA {}",
            dc.toxic_share,
            wa.toxic_share
        );
        // Band: loose at the tiny fixture's scale, where one viral group
        // (usually crypto) dominates the English corpus and dilutes the
        // sex-topic share.
        assert!(
            (0.01..=0.40).contains(&tg.toxic_share),
            "TG {}",
            tg.toxic_share
        );
        assert!(wa.toxic_share < 0.05, "WA {}", wa.toxic_share);
    }

    #[test]
    fn reports_are_well_formed() {
        let vocab = Vocabulary::build();
        for r in score_dataset(dataset(), &vocab, 50.0) {
            assert!((0.0..=1.0).contains(&r.mean));
            assert!((0.0..=1.0).contains(&r.toxic_share));
            assert!((0.0..=1.0).contains(&r.p90));
            assert!(r.p90 + 1e-9 >= r.mean || r.toxic_share < 0.5);
        }
    }
}
