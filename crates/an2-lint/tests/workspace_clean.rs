//! The committed tree must lint clean — this is the same check CI's `lint`
//! job runs, wired into `cargo test` so a violation fails locally too.

use an2_lint::analyze::FileAnalysis;
use an2_lint::closure::CallGraph;
use an2_lint::rules::{RULE_HOT_ALLOC, RULE_OVERFLOW, RULE_PANIC};
use an2_lint::{
    collect_files, default_root, lint_files, lint_files_full, lint_lockfile, Config, SourceFile,
};

fn render(violations: &[an2_lint::Violation]) -> String {
    violations
        .iter()
        .map(|v| format!("[{}] {}:{}: {}", v.rule, v.file, v.line, v.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn the_workspace_lints_clean() {
    let root = default_root();
    let cfg = Config::load(&root).expect("lint/ allowlists must be present and readable");
    let files = collect_files(&root, &cfg).expect("workspace walk failed");
    assert!(
        files.len() > 50,
        "walker found only {} files — wrong root?",
        files.len()
    );
    let mut violations = lint_files(&files, &cfg);
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock unreadable");
    violations.extend(lint_lockfile(&lock, &cfg));
    assert!(
        violations.is_empty(),
        "the committed tree has lint violations:\n{}",
        render(&violations)
    );
}

#[test]
fn an_injected_violation_is_caught() {
    let root = default_root();
    let cfg = Config::load(&root).expect("lint/ allowlists must be present and readable");
    let mut files = collect_files(&root, &cfg).expect("workspace walk failed");
    // A synthetic hot file whose schedule() allocates: if the linter ever
    // stops seeing this, the clean result above is vacuous.
    files.push(SourceFile {
        path: "crates/an2-sched/src/islip.rs".to_string(),
        src: "pub fn schedule(v: &mut Vec<u32>) { v.push(1); }\n".to_string(),
    });
    let violations = lint_files(&files, &cfg);
    assert!(
        violations.iter().any(|v| v.rule == RULE_HOT_ALLOC),
        "injected hot-path allocation was not detected:\n{}",
        render(&violations)
    );
}

#[test]
fn injected_panic_and_overflow_violations_are_caught() {
    let root = default_root();
    let cfg = Config::load(&root).expect("lint/ allowlists must be present and readable");
    let mut files = collect_files(&root, &cfg).expect("workspace walk failed");
    // A synthetic hot file tripping both v2 rules: raw indexing plus an
    // unwrap (panic-freedom) and a compound counter bump
    // (overflow-discipline). If either stops firing, the empty baseline
    // above proves nothing.
    files.push(SourceFile {
        path: "crates/an2-sched/src/islip.rs".to_string(),
        src: "pub fn schedule(buf: &mut [u64], count: &mut u64) {\n\
              \x20   buf[0] = buf.first().copied().unwrap();\n\
              \x20   *count += 1;\n\
              }\n"
            .to_string(),
    });
    let violations = lint_files(&files, &cfg);
    assert!(
        violations.iter().any(|v| v.rule == RULE_PANIC),
        "injected panic-freedom violation was not detected:\n{}",
        render(&violations)
    );
    assert!(
        violations.iter().any(|v| v.rule == RULE_OVERFLOW),
        "injected overflow-discipline violation was not detected:\n{}",
        render(&violations)
    );
}

#[test]
fn the_cross_crate_closure_dominates_the_per_file_closure() {
    let root = default_root();
    let cfg = Config::load(&root).expect("lint/ allowlists must be present and readable");
    let files = collect_files(&root, &cfg).expect("workspace walk failed");
    // Set containment, not a size ratio: how many fns the closures hold
    // depends on what the tree contains (deleting unused code shrinks both),
    // but every fn the per-file (v1) closure reaches must stay reachable
    // through the cross-crate (v2) graph, and v2 must reach beyond it. The
    // ratio itself is pinned on a fixture in `fixtures.rs`.
    let analyses: Vec<FileAnalysis> = files.iter().map(FileAnalysis::new).collect();
    let graph = CallGraph::build(&analyses);
    let v2 = graph.closure(&cfg, &cfg.hot_files, None);
    let v1 = graph.closure(&cfg, &cfg.legacy_hot_files, Some(&cfg.legacy_hot_files));
    let missed: Vec<String> = v1
        .hot
        .difference(&v2.hot)
        .map(|&idx| format!("{}: {}", graph.file_of(idx).path, graph.fn_of(idx).name))
        .collect();
    assert!(
        missed.is_empty(),
        "the v2 closure lost fns the v1 closure reaches:\n{}",
        missed.join("\n")
    );
    let beyond_legacy = v2
        .hot
        .iter()
        .filter(|&&idx| !cfg.legacy_hot_files.contains(&graph.file_of(idx).path))
        .count();
    assert!(
        v2.hot.len() > v1.hot.len() && beyond_legacy > 0,
        "v2 ({} fns) must reach past the per-file scope of v1 ({} fns)",
        v2.hot.len(),
        v1.hot.len()
    );
    let out = lint_files_full(&files, &cfg);
    assert_eq!(
        (out.closure.v2_fns, out.closure.v1_fns),
        (v2.hot.len(), v1.hot.len()),
        "the reported closure metrics must count the same closures"
    );
    assert!(
        out.closure.v2_files >= 20,
        "v2 closure should span the scheduling stack, saw {} files",
        out.closure.v2_files
    );
}
