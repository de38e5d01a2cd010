//! Integration tests for the determinism lint (`chatlens-lint`): every
//! rule firing on a fixture snippet, every rule silenced by its
//! `lint:allow` pragma, and the real workspace tree scanning clean.

use chatlens_lint::{check_source, check_source_counting, check_workspace, Rule};

fn rules_of(path: &str, src: &str) -> Vec<Rule> {
    check_source(path, src)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

/// `(rule, fixture path, violating snippet, suppressed variant)` — one row
/// per rule; the suppressed variant carries the pragma plus justification.
fn fixtures() -> Vec<(Rule, &'static str, &'static str, &'static str)> {
    vec![
        (
            Rule::D1,
            "crates/core/src/fixture.rs",
            "fn f() -> u64 { SystemTime::now().elapsed().as_secs() }",
            "// lint:allow(D1) fixture: operator-facing timestamp\nfn f() -> u64 { SystemTime::now().elapsed().as_secs() }",
        ),
        (
            Rule::D2,
            "crates/analysis/src/fixture.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 { let mut s = 0; for v in m.values() { s += v; } s }",
            "fn f(m: &HashMap<u32, u64>) -> u64 {\n let mut s = 0;\n // lint:allow(D2) fixture: sum is order-insensitive\n for v in m.values() { s += v; }\n s }",
        ),
        (
            Rule::D3,
            "crates/workload/src/fixture.rs",
            "fn f() -> u64 { thread_rng().next() }",
            "// lint:allow(D3) fixture: entropy is fine in this fixture\nfn f() -> u64 { thread_rng().next() }",
        ),
        (
            Rule::D4,
            "crates/analysis/src/fixture.rs",
            "fn f(pool: &Pool) { pool.par_map(&xs, |x| { shared.lock().push(*x); 0 }); }",
            "fn f(pool: &Pool) {\n // lint:allow(D4) fixture: lock is chunk-local here\n pool.par_map(&xs, |x| { shared.lock().push(*x); 0 });\n}",
        ),
        (
            Rule::D5,
            "crates/simnet/src/fixture.rs",
            "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }",
            "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n // lint:allow(D5) fixture: std mutex on purpose\n *m.lock().unwrap()\n}",
        ),
        (
            Rule::D6,
            "crates/core/src/fixture.rs",
            "fn f() { std::fs::write(\"out.txt\", \"data\").unwrap(); }",
            "// lint:allow(D6, D13) fixture: operator-requested export path\nfn f() { std::fs::write(\"out.txt\", \"data\").unwrap(); }",
        ),
        (
            Rule::D7,
            "crates/core/src/fixture.rs",
            "fn f(net: &mut Net) { let _ = net.twitter(eco, now, &req); }",
            "fn f(net: &mut Net) {\n // lint:allow(D7) fixture: warm-up call, outcome intentionally unused\n let _ = net.twitter(eco, now, &req);\n}",
        ),
        (
            Rule::D8,
            "crates/core/src/fixture.rs",
            "fn f(doc: &WireDoc) -> u64 { doc.req_u64(\"size\").unwrap() }",
            "fn f(doc: &WireDoc) -> u64 {\n // lint:allow(D8) fixture: body rendered two lines up, cannot fail\n doc.req_u64(\"size\").unwrap()\n}",
        ),
        (
            Rule::D9,
            "crates/checkpoint/src/fixture.rs",
            "struct S { a: u32, b: u32 }\nimpl Persist for S {\n fn save(&self, w: &mut Writer) { w.put_u64(self.a as u64); }\n fn load(r: &mut Reader) -> S { S { a: r.u64() as u32, b: 0 } }\n}",
            "struct S { a: u32, b: u32 }\n// lint:allow(D9) fixture: `b` is derived at load time, never persisted\nimpl Persist for S {\n fn save(&self, w: &mut Writer) { w.put_u64(self.a as u64); }\n fn load(r: &mut Reader) -> S { S { a: r.u64() as u32, b: 0 } }\n}",
        ),
        (
            Rule::D10,
            "crates/core/src/dataset.rs",
            "fn f(x: u32) -> String { x.to_string() }",
            "fn f(x: u32) -> String {\n // lint:allow(D10) fixture: cold path, runs once per report\n x.to_string()\n}",
        ),
        (
            Rule::D11,
            "crates/simnet/src/fixture.rs",
            "fn f(rng: &mut Rng) -> Rng { rng.fork(\"unregistered-stream\") }",
            "fn f(rng: &mut Rng) -> Rng {\n // lint:allow(D11) fixture: scratch stream local to this fixture\n rng.fork(\"unregistered-stream\")\n}",
        ),
        (
            Rule::D12,
            "crates/core/src/fixture.rs",
            "fn f(m: &Metrics) { m.incr(\"ad_hoc_key\", 1); }",
            "fn f(m: &Metrics) {\n // lint:allow(D12) fixture: one-off probe counter, not part of the schema\n m.incr(\"ad_hoc_key\", 1);\n}",
        ),
        (
            Rule::D13,
            "crates/core/src/fixture.rs",
            "fn f() -> String { std::fs::read_to_string(\"in.json\").unwrap() }",
            "// lint:allow(D13) fixture: diagnostic read outside the durability domain\nfn f() -> String { std::fs::read_to_string(\"in.json\").unwrap() }",
        ),
        (
            Rule::D14,
            "crates/core/src/fixture.rs",
            "fn f(doc: &WireDoc) -> Vec<u8> { Vec::with_capacity(doc.req_u64(\"n\").unwrap_or(0) as usize) }",
            "fn f(doc: &WireDoc) -> Vec<u8> {\n // lint:allow(D14) fixture: page size capped by the transport frame limit upstream\n Vec::with_capacity(doc.req_u64(\"n\").unwrap_or(0) as usize)\n}",
        ),
    ]
}

#[test]
fn every_rule_fires_on_its_fixture() {
    for (rule, path, bad, _) in fixtures() {
        let got = rules_of(path, bad);
        // A direct fs *write* trips both the artifact rule (D6) and the
        // VFS-confinement rule (D13) — distinct contracts, one site.
        let want = match rule {
            Rule::D6 => vec![Rule::D6, Rule::D13],
            _ => vec![rule],
        };
        assert_eq!(got, want, "{rule} fixture at {path}: {got:?}");
    }
}

#[test]
fn every_rule_is_suppressed_by_its_pragma() {
    for (rule, path, _, allowed) in fixtures() {
        let (findings, suppressed) = check_source_counting(path, allowed);
        assert!(
            findings.is_empty(),
            "{rule} pragma fixture still fires: {findings:?}"
        );
        let want = if rule == Rule::D6 { 2 } else { 1 };
        assert_eq!(suppressed, want, "{rule} pragma fixture suppression count");
    }
}

#[test]
fn findings_carry_file_line_and_rule_id() {
    let src = "fn f() {}\nfn g() -> u64 { SystemTime::now().elapsed().as_secs() }";
    let findings = check_source("crates/core/src/fixture.rs", src);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!((f.line, f.rule), (2, Rule::D1));
    let rendered = f.to_string();
    assert!(
        rendered.starts_with("crates/core/src/fixture.rs:2:"),
        "{rendered}"
    );
    assert!(rendered.contains("[D1]"), "{rendered}");
}

#[test]
fn wrong_rule_pragma_does_not_suppress() {
    // The D1 finding survives the mismatched pragma, and the pragma itself
    // becomes a finding: a `lint:allow` that suppresses nothing is dead
    // weight that hides drift, so the audit flags it (attributed to the
    // rule it names, at the pragma's own line).
    let src = "// lint:allow(D3) wrong rule on purpose\nfn f() -> u64 { SystemTime::now().elapsed().as_secs() }";
    assert_eq!(
        rules_of("crates/core/src/fixture.rs", src),
        vec![Rule::D3, Rule::D1]
    );
}

#[test]
fn the_real_workspace_tree_is_clean() {
    let report = check_workspace(env!("CARGO_MANIFEST_DIR")).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the tree must lint clean; findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk actually visited the workspace (all crates + src/).
    assert!(report.files_scanned >= 50, "{} files", report.files_scanned);
    // Every pragma in the tree is intentional: these are the justified
    // allowances documented in DESIGN.md §Determinism lint. Growing this
    // number requires a justification comment at the new site. The audit
    // rules guarantee each one both suppresses a real finding and carries
    // a justification, so the count is exact, not a ceiling.
    assert_eq!(report.suppressed, 60, "unexpected lint:allow pragma count");
}

#[test]
fn stats_table_reports_all_rules_on_real_tree() {
    let report = check_workspace(env!("CARGO_MANIFEST_DIR")).expect("workspace scan");
    let table = report.stats_table();
    for rule in Rule::ALL {
        assert!(table.contains(rule.id()), "missing {rule} in:\n{table}");
    }
    assert!(table.contains("suppressed"), "{table}");
}

#[test]
fn repro_lint_exits_zero_on_clean_tree_and_nonzero_on_violation() {
    use std::process::Command;
    // Clean tree: the workspace itself.
    let ok = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("lint")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run repro lint");
    assert!(
        ok.status.success(),
        "repro lint failed on clean tree:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Seeded violation fixture: a minimal workspace layout whose one
    // source file calls a banned API.
    let fixture_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("lint-violation-fixture");
    let src_dir = fixture_root.join("crates").join("bad").join("src");
    std::fs::create_dir_all(&src_dir).expect("fixture dirs");
    std::fs::create_dir_all(fixture_root.join("src")).expect("fixture src dir");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn now() -> u64 { SystemTime::now().elapsed().as_secs() }\n",
    )
    .expect("fixture file");
    let bad = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("lint")
        .current_dir(&fixture_root)
        .output()
        .expect("run repro lint on fixture");
    assert!(
        !bad.status.success(),
        "repro lint must exit nonzero on the violation fixture"
    );
    let out = String::from_utf8_lossy(&bad.stdout);
    assert!(out.contains("[D1]"), "diagnostic names the rule: {out}");
    assert!(
        out.contains("crates/bad/src/lib.rs:1:"),
        "diagnostic names file and line: {out}"
    );
}

/// Does `manifest` take `name` from the workspace, as
/// `name.workspace = true` or `name = { workspace = true, .. }`?
fn uses_workspace_dep(manifest: &str, name: &str) -> bool {
    manifest.lines().any(|line| {
        line.trim().strip_prefix(name).is_some_and(|rest| {
            let rest = rest.trim_start();
            rest.starts_with(".workspace = true")
                || (rest.starts_with("= {") && rest.contains("workspace = true"))
        })
    })
}

#[test]
fn every_workspace_dependency_has_a_user() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).expect("manifest");
    // The root manifest (which also holds the root package) plus every
    // member under crates/.
    let mut manifests = vec![read(root.join("Cargo.toml"))];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let path = entry.expect("crates entry").path().join("Cargo.toml");
        if path.is_file() {
            manifests.push(read(path));
        }
    }
    let declared: Vec<&str> = manifests[0]
        .lines()
        .skip_while(|l| l.trim() != "[workspace.dependencies]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once('=').map(|(name, _)| name.trim()))
        .collect();
    assert!(declared.contains(&"proptest"), "parsed {declared:?}");
    let unused: Vec<&&str> = declared
        .iter()
        .filter(|name| !manifests.iter().any(|m| uses_workspace_dep(m, name)))
        .collect();
    assert!(
        unused.is_empty(),
        "unused [workspace.dependencies]: {unused:?}"
    );
}
