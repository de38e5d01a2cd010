//! The three workloads: the `repro` command lines of their legs, the
//! oracle each one's output is checked against, and how a finished run's
//! output is digested.

use crate::proc;
use chatlens::simnet::hash::sha256_hex;
use std::path::{Path, PathBuf};

/// Study day the `durable` workload halts after before it resumes.
pub const HALT_DAY: u32 = 20;
/// Scale of the seed-derived probe world every run also checks beside the
/// fixed timed world: small enough to cost a few seconds, so each run
/// covers a world for which no reference was recorded.
pub const PROBE_SCALE: f64 = 0.002;

/// Reference outputs, one tab-separated line per workload, world seed and
/// scale: `workload world_seed scale digest records resume_day`. The
/// resume day is the snapshot day the durable resume leg starts from (`-`
/// for the other workloads). A run whose world has no line here runs the
/// oracle live and prints the line to add.
const REFERENCES: &str = include_str!("../references.tsv");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `repro all`: the campaign, then every table, figure and the
    /// scorecard, plus the CSV figure series.
    Paper,
    /// `repro run` on a larger world: the campaign only.
    Crawl,
    /// A checkpointed, budgeted, faulted `repro run` halted mid-campaign
    /// and resumed from its own damaged chain.
    Durable,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper" => Some(Kind::Paper),
            "crawl" => Some(Kind::Crawl),
            "durable" => Some(Kind::Durable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Crawl => "crawl",
            Kind::Durable => "durable",
        }
    }

    /// World scale of the timed runs.
    pub fn scale(self) -> f64 {
        match self {
            Kind::Paper => 0.02,
            Kind::Crawl => 0.05,
            Kind::Durable => 0.02,
        }
    }

    /// The workload's own legs, in order, writing into `out`.
    pub fn legs(self, scale: f64, world_seed: u64, threads: usize, out: &Path) -> Vec<Vec<String>> {
        let world = world_args(scale, world_seed, threads);
        match self {
            Kind::Paper => vec![cat(&world, &["all", "--csv", &path(out, "csv")])],
            Kind::Crawl => vec![cat(&world, &["run", "--report-out", &path(out, "report")])],
            Kind::Durable => {
                let halt = cat(
                    &world,
                    &[
                        "--checkpoint-dir",
                        &path(out, "chain"),
                        "--spill-dir",
                        &path(out, "spill"),
                        "--halt-after-day",
                        &HALT_DAY.to_string(),
                        "run",
                    ],
                );
                // Scale and world seed come from the snapshot on resume.
                let resume = cat(
                    &["--threads".to_string(), threads.to_string()],
                    &[
                        "--spill-dir",
                        &path(out, "spill"),
                        "--resume",
                        &path(out, "chain"),
                        "run",
                        "--report-out",
                        &path(out, "report"),
                    ],
                );
                vec![with_durable_flags(halt), with_durable_flags(resume)]
            }
        }
    }

    /// The legs whose output the workload's output must equal: the same
    /// artifact at one thread for `paper` and `crawl` (thread
    /// invariance), the uninterrupted run of the same configuration at
    /// `threads` for `durable` (resume equals uninterrupted).
    pub fn oracle_legs(
        self,
        scale: f64,
        world_seed: u64,
        threads: usize,
        out: &Path,
    ) -> Vec<Vec<String>> {
        match self {
            Kind::Paper | Kind::Crawl => self.legs(scale, world_seed, 1, out),
            Kind::Durable => {
                let world = world_args(scale, world_seed, threads);
                vec![with_durable_flags(cat(
                    &world,
                    &[
                        "--spill-dir",
                        &path(out, "spill"),
                        "run",
                        "--report-out",
                        &path(out, "report"),
                    ],
                ))]
            }
        }
    }

    /// Digest of what a finished run produced in `out`, given the stdout
    /// of its last leg. Only bytes without wall-clock values go in: stderr
    /// (progress and `campaign done in`) never does.
    pub fn digest(self, out: &Path, last_stdout: &[u8]) -> String {
        let report = std::fs::read(out.join("report")).unwrap_or_default();
        match self {
            Kind::Paper => {
                let mut bytes = last_stdout.to_vec();
                bytes.extend(csv_bytes(&out.join("csv")));
                sha256_hex(&bytes)
            }
            Kind::Crawl => {
                let mut bytes = report;
                bytes.extend_from_slice(last_stdout);
                sha256_hex(&bytes)
            }
            // The resumed stdout carries the resumed run's own budget
            // statistics; the report is what must equal the
            // uninterrupted run's.
            Kind::Durable => sha256_hex(&report),
        }
    }

    /// Collected tweets plus messages, parsed from the last leg's stdout.
    pub fn records(self, last_stdout: &[u8]) -> Option<u64> {
        let text = String::from_utf8_lossy(last_stdout);
        match self {
            // Table 2's bottom row: Total, #Tweets, #TwUsers, #GroupURLs,
            // #Joined, #Messages, #Users.
            Kind::Paper => {
                let row = text.lines().find(|l| l.starts_with("Total "))?;
                let cols: Vec<&str> = row.split_whitespace().collect();
                Some(count(cols.get(1)?)? + count(cols.get(5)?)?)
            }
            // "campaign complete: N tweets, N group URLs, N joined groups, N messages"
            Kind::Crawl | Kind::Durable => {
                let line = text
                    .lines()
                    .find(|l| l.starts_with("campaign complete: "))?;
                let words: Vec<&str> = line.split_whitespace().collect();
                let before = |w: &str| {
                    words
                        .iter()
                        .position(|x| x.starts_with(w))
                        .map(|i| words[i - 1])
                };
                Some(count(before("tweets")?)? + count(before("messages")?)?)
            }
        }
    }
}

/// The names and bytes of the files in `dir`, in name order: the CSV
/// series `repro all --csv` writes.
pub fn csv_bytes(dir: &Path) -> Vec<u8> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.file_name().unwrap_or_default().as_encoded_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    bytes
}

/// What the timed world's output must equal.
pub struct Reference {
    pub digest: String,
    pub records: u64,
    /// Snapshot day the durable resume leg must start from; `None` when
    /// not recorded.
    pub resume_day: Option<u32>,
    /// Whether it comes from `references.tsv` rather than a live oracle.
    pub recorded: bool,
}

pub fn recorded(kind: Kind, world_seed: u64, scale: f64) -> Option<Reference> {
    REFERENCES.lines().find_map(|line| {
        let f: Vec<&str> = line.split('\t').collect();
        let matches = f.len() == 6
            && f[0] == kind.name()
            && f[1].parse() == Ok(world_seed)
            && f[2].parse() == Ok(scale);
        matches.then(|| Reference {
            digest: f[3].to_string(),
            records: f[4].parse().unwrap_or(0),
            resume_day: f[5].parse().ok(),
            recorded: true,
        })
    })
}

/// The `references.tsv` line for `reference`, with the resume day a
/// checked pass of the workload started from.
pub fn reference_line(
    kind: Kind,
    world_seed: u64,
    scale: f64,
    reference: &Reference,
    pass: &Outcome,
) -> String {
    let resume = pass
        .resume_day
        .map_or_else(|| "-".to_string(), |d| d.to_string());
    format!(
        "{}\t{world_seed}\t{scale}\t{}\t{}\t{resume}",
        kind.name(),
        reference.digest,
        reference.records
    )
}

/// The `--scale`, `--seed` and `--threads` flags of one run.
fn world_args(scale: f64, world_seed: u64, threads: usize) -> Vec<String> {
    [
        "--scale".to_string(),
        scale.to_string(),
        "--seed".to_string(),
        world_seed.to_string(),
        "--threads".to_string(),
        threads.to_string(),
    ]
    .to_vec()
}

/// Fault, corruption, disk-fault and budget flags of every durable leg.
fn with_durable_flags(mut args: Vec<String>) -> Vec<String> {
    let flags = [
        "--fault-profile",
        "bursty",
        "--corruption",
        "hostile",
        "--disk-fault",
        "torn",
        "--mem-budget",
        "min",
    ];
    let at = args.iter().position(|a| a == "run").unwrap_or(args.len());
    args.splice(at..at, flags.iter().map(|s| s.to_string()));
    args
}

fn cat(head: &[String], tail: &[&str]) -> Vec<String> {
    head.iter()
        .cloned()
        .chain(tail.iter().map(|s| s.to_string()))
        .collect()
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).display().to_string()
}

fn count(s: &str) -> Option<u64> {
    s.replace(',', "").parse().ok()
}

/// What one pass over a workload's legs produced.
pub struct Outcome {
    /// Wall time and peak RSS of each leg, in order.
    pub legs: Vec<(f64, f64)>,
    /// Why the pass failed, if a leg exited non-zero or its output was
    /// unreadable.
    pub error: Option<String>,
    pub digest: String,
    pub records: u64,
    /// Bytes the pass left in its output directory.
    pub disk_bytes: u64,
    /// Snapshot day a durable resume leg started from.
    pub resume_day: Option<u32>,
    /// The last leg's stdout.
    pub stdout: Vec<u8>,
}

impl Outcome {
    pub fn wall_s(&self) -> f64 {
        self.legs.iter().map(|l| l.0).sum()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.legs.iter().map(|l| l.1).fold(0.0, f64::max)
    }

    /// Whether the pass ran cleanly and produced `reference`'s output,
    /// resuming from the recorded day if one is recorded.
    pub fn matches(&self, reference: &Reference) -> bool {
        self.error.is_none()
            && self.digest == reference.digest
            && self.records == reference.records
            && reference
                .resume_day
                .is_none_or(|d| self.resume_day == Some(d))
    }
}

/// Run `legs` in order against a fresh `dir`/out and digest the result.
/// The program's captured stdout and stderr live beside `out`, so they
/// never count as bytes the workload left behind.
pub fn run_legs(kind: Kind, repro: &Path, legs: &[Vec<String>], dir: &Path) -> Outcome {
    let out = dir.join("out");
    let _ = std::fs::remove_dir_all(dir);
    let mut outcome = Outcome {
        legs: Vec::new(),
        error: None,
        digest: String::new(),
        records: 0,
        disk_bytes: 0,
        resume_day: None,
        stdout: Vec::new(),
    };
    if let Err(e) = std::fs::create_dir_all(&out) {
        outcome.error = Some(format!("{}: {e}", out.display()));
        return outcome;
    }
    let mut halt_day = None;
    for (i, args) in legs.iter().enumerate() {
        match proc::run(repro, args, &dir.join(format!("leg{i}"))) {
            Ok(f) => {
                outcome.legs.push((f.wall_s, f.peak_rss_mb));
                if i == 0 {
                    halt_day = day_on(&f.stdout, "campaign halted after day ", "after day ");
                }
                outcome.resume_day =
                    day_on(&f.stderr, "# resuming budgeted campaign from ", "(day ");
                if !f.status.success() {
                    let tail = String::from_utf8_lossy(&f.stderr);
                    let tail = tail.lines().rev().take(3).collect::<Vec<_>>().join(" / ");
                    outcome.error = Some(format!("leg {i} exited with {}: {tail}", f.status));
                    return outcome;
                }
                outcome.stdout = f.stdout;
            }
            Err(e) => {
                outcome.error = Some(format!("leg {i} did not run: {e}"));
                return outcome;
            }
        }
    }
    outcome.digest = kind.digest(&out, &outcome.stdout);
    match kind.records(&outcome.stdout) {
        Some(n) => outcome.records = n,
        None => outcome.error = Some("no record count in the output".to_string()),
    }
    // A resume that finds no valid snapshot restarts from scratch and
    // still produces the uninterrupted report, so the report alone cannot
    // show that chain recovery worked.
    if kind == Kind::Durable && legs.len() > 1 {
        let recovered =
            matches!((halt_day, outcome.resume_day), (Some(h), Some(r)) if r >= 1 && r <= h);
        if !recovered {
            outcome.error = Some(format!(
                "the resume leg did not start from a snapshot of the halted leg \
                 (halted after day {halt_day:?}, resumed from day {:?})",
                outcome.resume_day
            ));
        }
    }
    outcome.disk_bytes = proc::dir_bytes(&out);
    outcome
}

/// The day on the line of `text` that starts with `prefix`: the number
/// right after the last `marker` on it, as in "campaign halted after day
/// 20 (...)" or "# resuming budgeted campaign from <dir> (day 20, ...)".
fn day_on(text: &[u8], prefix: &str, marker: &str) -> Option<u32> {
    let text = String::from_utf8_lossy(text);
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    let rest = &line[line.rfind(marker)? + marker.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}
