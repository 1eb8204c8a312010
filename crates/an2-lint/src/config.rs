//! Linter configuration: which files the rules apply to and the committed
//! allowlists.
//!
//! Two layers compose a [`Config`]:
//!
//! * **Built-in scope** ([`Config::base`]) — which crates are deterministic,
//!   which `an2-sched` modules form the scheduler hot path, which paths may
//!   write to stdout. These encode *architecture*, so they live in code
//!   where changing them shows up in review as a linter change.
//! * **Committed allowlist files** ([`Config::load`]) — `lint/…​.txt` at the
//!   workspace root: the unsafe-file allowlist, the dependency allowlist and
//!   the violation baseline. These encode *inventory*, so they live in data
//!   files a PR can extend without touching the linter.

use std::path::Path;

/// The PR 5 per-file hot scope, kept verbatim for the v1 closure metric.
/// Do not extend this list — new hot files go in [`Config::base`]'s
/// `hot_files`; this one exists so the v2/v1 ratio stays meaningful.
const LEGACY_HOT_FILES: [&str; 14] = [
    "crates/an2-sched/src/pim.rs",
    "crates/an2-sched/src/islip.rs",
    "crates/an2-sched/src/stat.rs",
    "crates/an2-sched/src/maximum.rs",
    "crates/an2-sched/src/matching.rs",
    "crates/an2-sched/src/port.rs",
    "crates/an2-sched/src/requests.rs",
    "crates/an2-sched/src/rng.rs",
    "crates/an2-sched/src/scheduler.rs",
    "crates/an2-sim/src/batch.rs",
    "crates/an2-net/src/shard.rs",
    "crates/an2-sim/src/fault.rs",
    "crates/an2-sched/src/mwm.rs",
    "crates/an2-sched/src/serenade.rs",
];

/// A violation identity as stored in the baseline file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// Full linter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files whose `fn`s participate in the hot-path allocation closure.
    pub hot_files: Vec<String>,
    /// The PR 5 hot-file list, frozen. The v1 closure metric in
    /// `results/LINT.json` is computed over exactly these files (seeds and
    /// traversal domain both), so the v2/v1 ratio measures what the
    /// cross-crate closure actually gained.
    pub legacy_hot_files: Vec<String>,
    /// Function names that seed the hot-path closure in every hot file.
    pub hot_seed_fns: Vec<String>,
    /// Path prefixes the hot closure may traverse into. Name-resolved call
    /// edges stop at this boundary: vendored test stand-ins (criterion,
    /// proptest), integration tests and examples share fn names with
    /// product code but never run on the per-slot path.
    pub hot_domain_prefixes: Vec<String>,
    /// Crate directory prefixes whose code must be deterministic.
    pub det_prefixes: Vec<String>,
    /// Files exempt from the determinism rule (the deterministic-hasher
    /// aliases themselves must name `HashMap`).
    pub det_exempt_files: Vec<String>,
    /// Files allowed to contain `unsafe` (each occurrence still needs a
    /// `// SAFETY:` rationale).
    pub unsafe_allowlist: Vec<String>,
    /// Path prefixes allowed to write to stdout (beyond `src/main.rs` and
    /// `src/bin/` targets, which are always allowed).
    pub stdout_exempt_prefixes: Vec<String>,
    /// Crate names allowed to appear in `Cargo.lock`.
    pub deps_allowlist: Vec<String>,
    /// Path prefixes the walker skips entirely (fixtures are raw lint
    /// inputs, not workspace code).
    pub walk_skip_prefixes: Vec<String>,
    /// Known violations tolerated until they are fixed (normally empty).
    pub baseline: Vec<BaselineEntry>,
}

impl Config {
    /// The built-in scope with empty allowlists; tests extend it by hand.
    pub fn base() -> Self {
        Self {
            hot_files: [
                // The PR 1 zero-allocation schedulers…
                "crates/an2-sched/src/pim.rs",
                "crates/an2-sched/src/islip.rs",
                "crates/an2-sched/src/stat.rs",
                "crates/an2-sched/src/maximum.rs",
                // …and the support modules their slot loops run through.
                // `check.rs` is deliberately absent: its contract rules
                // allocate (violation messages, k-grant's load table), and
                // they run only where allocation is fine — the probe
                // runner, the tests, and `CheckedScheduler`, whose checks
                // are compiled out of plain release builds.
                "crates/an2-sched/src/matching.rs",
                "crates/an2-sched/src/port.rs",
                "crates/an2-sched/src/requests.rs",
                "crates/an2-sched/src/rng.rs",
                "crates/an2-sched/src/scheduler.rs",
                // The PR 6 batched engines: the single-switch SoA slot
                // loop and the sharded network's per-switch step. Their
                // `// an2-lint: hot` slot functions must stay
                // allocation-free; the spill/grow paths are annotated
                // cold by design (amortized, off the steady-state path).
                "crates/an2-sim/src/batch.rs",
                "crates/an2-net/src/shard.rs",
                // The PR 7 chaos engine: fault-plan delivery runs inside
                // the faulted slot loops; the log's record paths are cold
                // (they grow the forensic event list, not the slot loop).
                "crates/an2-sim/src/fault.rs",
                // The queue-aware schedulers: MWM's augmenting-path solve
                // and SERENADE's propose/merge both run per slot, with the
                // Q-matrix observe feed on the same loop.
                "crates/an2-sched/src/mwm.rs",
                "crates/an2-sched/src/serenade.rs",
                // PR 10: the per-slot code the old closure missed — the
                // crossbar switch's slot loop runs on every cell time.
                "crates/an2-sim/src/switch.rs",
            ]
            .map(String::from)
            .to_vec(),
            legacy_hot_files: LEGACY_HOT_FILES.map(String::from).to_vec(),
            hot_seed_fns: vec!["schedule".to_string()],
            hot_domain_prefixes: [
                "crates/an2-sched/",
                "crates/an2-sim/",
                "crates/an2-net/",
                "crates/an2-task/",
            ]
            .map(String::from)
            .to_vec(),
            det_prefixes: [
                "crates/an2-sched/",
                "crates/an2-sim/",
                "crates/an2-net/",
                "crates/an2-task/",
            ]
            .map(String::from)
            .to_vec(),
            det_exempt_files: vec!["crates/an2-sched/src/det.rs".to_string()],
            unsafe_allowlist: Vec::new(),
            stdout_exempt_prefixes: [
                // The vendored offline stand-ins report to stdout by design.
                "crates/criterion/",
                "crates/proptest/",
                // Runnable demos print their figures.
                "examples/",
            ]
            .map(String::from)
            .to_vec(),
            deps_allowlist: Vec::new(),
            walk_skip_prefixes: vec!["crates/an2-lint/tests/fixtures/".to_string()],
            baseline: Vec::new(),
        }
    }

    /// Loads the full configuration for the workspace rooted at `root`,
    /// reading the committed `lint/` allowlist files.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unreadable file if any allowlist is
    /// missing — a silently absent allowlist would make the unsafe and
    /// dependency rules vacuously reject everything or nothing.
    pub fn load(root: &Path) -> Result<Self, String> {
        let mut cfg = Self::base();
        cfg.unsafe_allowlist = read_list(&root.join("lint/unsafe-allowlist.txt"))?;
        cfg.deps_allowlist = read_list(&root.join("lint/deps-allowlist.txt"))?;
        cfg.baseline = read_list(&root.join("lint/baseline.txt"))?
            .iter()
            .filter_map(|l| parse_baseline_line(l))
            .collect();
        Ok(cfg)
    }
}

/// Reads a `lint/*.txt` allowlist: one entry per line, `#` comments and
/// blank lines ignored.
fn read_list(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Parses one baseline line: `rule<TAB>file<TAB>line`.
fn parse_baseline_line(line: &str) -> Option<BaselineEntry> {
    let mut parts = line.split('\t');
    let rule = parts.next()?.to_string();
    let file = parts.next()?.to_string();
    let line = parts.next()?.parse().ok()?;
    Some(BaselineEntry { rule, file, line })
}

/// Formats a baseline entry for `--fix-baseline`.
pub fn baseline_line(rule: &str, file: &str, line: u32) -> String {
    format!("{rule}\t{file}\t{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_lines_round_trip() {
        let line = baseline_line("determinism", "crates/x/src/lib.rs", 42);
        let e = parse_baseline_line(&line).unwrap();
        assert_eq!(e.rule, "determinism");
        assert_eq!(e.file, "crates/x/src/lib.rs");
        assert_eq!(e.line, 42);
        assert!(parse_baseline_line("malformed").is_none());
    }
}
