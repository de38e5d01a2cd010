//! The tweet model.
//!
//! A simulated tweet carries exactly the attributes the paper's analyses
//! read: author and time (discovery dynamics, Fig 1–2), hashtag/mention
//! counts and retweet linkage (content features, Fig 3), language (Fig 4),
//! embedded URLs as **raw strings** the extraction pipeline must parse
//! (§3.1), and tokenized text for LDA (Table 3).

use chatlens_platforms::wire::push_decimal;
use chatlens_simnet::time::SimTime;
use std::fmt;

/// Tweet identifier. Ids are assigned in chronological order by the store,
/// so `since_id`-style incremental queries work like on real Twitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TweetId(pub u64);

/// Twitter account identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TwitterUserId(pub u32);

/// Tweet language, as reported by Twitter's `lang` field (Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lang {
    /// English.
    En,
    /// Spanish.
    Es,
    /// Portuguese.
    Pt,
    /// Arabic.
    Ar,
    /// Turkish.
    Tr,
    /// Japanese.
    Ja,
    /// Indonesian.
    In,
    /// Hindi.
    Hi,
    /// French.
    Fr,
    /// German.
    De,
    /// Russian.
    Ru,
    /// Thai.
    Th,
    /// Korean.
    Ko,
    /// Undetermined (Twitter's `und`).
    Und,
    /// Any other language.
    Other,
}

impl Lang {
    /// All languages, in a fixed order.
    pub const ALL: [Lang; 15] = [
        Lang::En,
        Lang::Es,
        Lang::Pt,
        Lang::Ar,
        Lang::Tr,
        Lang::Ja,
        Lang::In,
        Lang::Hi,
        Lang::Fr,
        Lang::De,
        Lang::Ru,
        Lang::Th,
        Lang::Ko,
        Lang::Und,
        Lang::Other,
    ];

    /// BCP-47-ish code as Twitter reports it.
    pub fn code(self) -> &'static str {
        match self {
            Lang::En => "en",
            Lang::Es => "es",
            Lang::Pt => "pt",
            Lang::Ar => "ar",
            Lang::Tr => "tr",
            Lang::Ja => "ja",
            Lang::In => "in",
            Lang::Hi => "hi",
            Lang::Fr => "fr",
            Lang::De => "de",
            Lang::Ru => "ru",
            Lang::Th => "th",
            Lang::Ko => "ko",
            Lang::Und => "und",
            Lang::Other => "other",
        }
    }

    /// Parse a code produced by [`Lang::code`].
    pub fn from_code(code: &str) -> Option<Lang> {
        Lang::ALL.into_iter().find(|l| l.code() == code)
    }

    /// Stable index into [`Lang::ALL`].
    pub fn index(self) -> usize {
        Lang::ALL
            .iter()
            .position(|&l| l == self)
            .expect("lang present in ALL")
    }
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One tweet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tweet {
    /// Chronologically-assigned id.
    pub id: TweetId,
    /// Author account.
    pub author: TwitterUserId,
    /// Posting instant.
    pub at: SimTime,
    /// Language tag.
    pub lang: Lang,
    /// Number of hashtags in the tweet.
    pub hashtags: u8,
    /// Number of @-mentions in the tweet.
    pub mentions: u8,
    /// For retweets, the original tweet (content is mirrored from it).
    pub retweet_of: Option<TweetId>,
    /// Embedded URLs, verbatim. The collector's extractor parses these;
    /// most are invite URLs, some are unrelated links it must ignore.
    pub urls: Vec<String>,
    /// Tokenized text (vocabulary ids from the workload's lexicon); used by
    /// the LDA pipeline. Empty for tweets outside the topic-modeled set.
    pub tokens: Vec<u16>,
    /// Whether this tweet belongs to the 1% control sample rather than the
    /// pattern-matched collection.
    pub is_control: bool,
}

impl Tweet {
    /// Whether the tweet is a retweet.
    pub fn is_retweet(&self) -> bool {
        self.retweet_of.is_some()
    }

    /// Encode to the wire-field value used by the `twitter/*` endpoints:
    /// `<id>|<author>|<secs>|<lang>|<hashtags>|<mentions>|<rt|->|<url,url>|<tok tok>`.
    pub fn encode(&self) -> String {
        let urls_len: usize = self.urls.iter().map(|u| u.len() + 1).sum();
        let mut out = String::with_capacity(48 + urls_len + self.tokens.len() * 6);
        self.encode_into(&mut out);
        out
    }

    /// Append [`Tweet::encode`]'s value to `out`. The feeds and the
    /// report's tweets digest encode millions of tweets per campaign, so
    /// they write into one buffer with no per-tweet `String`.
    pub fn encode_into(&self, out: &mut String) {
        push_decimal(out, self.id.0);
        out.push('|');
        push_decimal(out, u64::from(self.author.0));
        out.push('|');
        push_decimal(out, self.at.as_secs());
        out.push('|');
        out.push_str(self.lang.code());
        out.push('|');
        push_decimal(out, u64::from(self.hashtags));
        out.push('|');
        push_decimal(out, u64::from(self.mentions));
        out.push('|');
        match self.retweet_of {
            Some(TweetId(id)) => push_decimal(out, id),
            None => out.push('-'),
        }
        out.push('|');
        for (i, u) in self.urls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(u);
        }
        out.push('|');
        for (i, &t) in self.tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            push_decimal(out, u64::from(t));
        }
    }

    /// Decode a value produced by [`Tweet::encode`]. `is_control` is not on
    /// the wire (the endpoint implies it) and defaults to `false`.
    pub fn decode(s: &str) -> Option<Tweet> {
        let mut parts = s.split('|');
        let id = TweetId(parts.next()?.parse().ok()?);
        let author = TwitterUserId(parts.next()?.parse().ok()?);
        let at = SimTime::from_secs(parts.next()?.parse().ok()?);
        let lang = Lang::from_code(parts.next()?)?;
        let hashtags = parts.next()?.parse().ok()?;
        let mentions = parts.next()?.parse().ok()?;
        let rt = parts.next()?;
        let retweet_of = if rt == "-" {
            None
        } else {
            Some(TweetId(rt.parse().ok()?))
        };
        let urls_raw = parts.next()?;
        let urls = if urls_raw.is_empty() {
            Vec::new()
        } else {
            urls_raw.split(',').map(str::to_string).collect()
        };
        let toks_raw = parts.next()?;
        let tokens = if toks_raw.is_empty() {
            Vec::new()
        } else {
            let mut v = Vec::new();
            for t in toks_raw.split(' ') {
                v.push(t.parse().ok()?);
            }
            v
        };
        if parts.next().is_some() {
            return None;
        }
        Some(Tweet {
            id,
            author,
            at,
            lang,
            hashtags,
            mentions,
            retweet_of,
            urls,
            tokens,
            is_control: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tweet {
        Tweet {
            id: TweetId(42),
            author: TwitterUserId(7),
            at: SimTime::from_secs(1_586_300_000),
            lang: Lang::Pt,
            hashtags: 2,
            mentions: 1,
            retweet_of: Some(TweetId(40)),
            urls: vec![
                "https://chat.whatsapp.com/AAAAAAAAAAAAAAAAAAAAAA".into(),
                "https://example.com/x".into(),
            ],
            tokens: vec![1, 5, 9],
            is_control: false,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        assert_eq!(Tweet::decode(&t.encode()), Some(t));
    }

    #[test]
    fn encoding_is_the_pinned_text_and_encode_into_appends() {
        let t = sample();
        let pinned = "42|7|1586300000|pt|2|1|40|\
                      https://chat.whatsapp.com/AAAAAAAAAAAAAAAAAAAAAA,https://example.com/x|1 5 9";
        assert_eq!(t.encode(), pinned);
        let mut out = String::from("ctl ");
        t.encode_into(&mut out);
        assert_eq!(out, format!("ctl {pinned}"));
    }

    #[test]
    fn roundtrip_empty_urls_and_tokens() {
        let mut t = sample();
        t.urls.clear();
        t.tokens.clear();
        t.retweet_of = None;
        assert_eq!(Tweet::decode(&t.encode()), Some(t));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Tweet::decode(""), None);
        assert_eq!(Tweet::decode("1|2|3"), None);
        assert_eq!(Tweet::decode("x|2|3|en|0|0|-||"), None);
        assert_eq!(Tweet::decode("1|2|3|xx|0|0|-||"), None, "bad lang");
        let t = sample();
        assert_eq!(Tweet::decode(&format!("{}|extra", t.encode())), None);
    }

    #[test]
    fn lang_code_roundtrip() {
        for l in Lang::ALL {
            assert_eq!(Lang::from_code(l.code()), Some(l));
        }
        assert_eq!(Lang::from_code("zz"), None);
    }

    #[test]
    fn lang_index_is_stable() {
        for (i, l) in Lang::ALL.into_iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn retweet_flag() {
        let mut t = sample();
        assert!(t.is_retweet());
        t.retweet_of = None;
        assert!(!t.is_retweet());
    }
}
