//! Malformed-input suites for the two JSON readers behind `an2-repro`:
//! `replay` (`ReplayCase::from_json`) and `bench-compare`
//! (`perf::parse_cases`, `perf::parse_scaling`, `perf::compare`).
//!
//! Each reader gets a valid document cut short at every byte, and the
//! same document with random single-byte substitutions, insertions and
//! deletions. Every call must return `Ok` or `Err`; a panic fails the
//! test, and so does a replay case accepted with a budget no replay can
//! run to the end. Edits that leave invalid UTF-8 are decoded lossily, as no reader
//! is ever handed anything but a `&str`.

use an2_bench::perf;
use an2_verify::replay::MAX_REPLAY_SLOTS;
use an2_verify::{ReplayCase, ReplayParseError};
use proptest::prelude::*;

/// The committed `BENCH_sched.json`: a v3 report with both `cases` and
/// `scaling` rows.
const BENCH: &str = include_str!("../../../BENCH_sched.json");

/// `BENCH` cut down to its N = 16 rows: still a v3 report with both
/// sections, small enough to truncate at every byte in well under a second.
fn bench_n16() -> String {
    let rows: Vec<&str> = BENCH
        .lines()
        .filter(|l| !l.trim_start().starts_with("{\"") || l.contains("\"n\": 16,"))
        .collect();
    // The last kept row of each array may have lost its successor.
    (rows.join("\n") + "\n").replace(",\n  ]", "\n  ]")
}

/// A capture using every key of the replay schema, annotations included.
fn replay_capture() -> String {
    let mut case = ReplayCase::new(16, 0xA2, 0.9, 512);
    case.pair_capacity = Some(4);
    case.corrupt = vec![(3, 1), (5, 0), (11, 7)];
    case.failing_slot = Some(11);
    case.rule = Some("respects".to_owned());
    case.to_json()
}

/// Runs every bench-JSON entry point on `doc`, alone and against the
/// intact report on either side. Only panics matter; results are dropped.
fn bench_readers(doc: &str) {
    let _ = perf::parse_cases(doc);
    let _ = perf::parse_scaling(doc);
    let _ = perf::compare(BENCH, doc);
    let _ = perf::compare(doc, BENCH);
}

/// Characters the readers split and parse on, so edits land on the
/// paths that decide between `Ok` and `Err` more often than raw bytes do.
const SYNTAX: &[u8] = b"0123456789-+.eE\"{}[],: \nNaNinfnull";

/// Applies one edit to `doc`: `kind` 0 substitutes the byte at `at`, 1
/// inserts before it, 2 deletes it. The new byte is a syntax character
/// picked by `byte` when `syntax` is set, else `byte` itself.
fn edit(doc: &str, at: usize, kind: u8, syntax: bool, byte: u8) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = at % bytes.len();
    let b = if syntax {
        SYNTAX[usize::from(byte) % SYNTAX.len()]
    } else {
        byte
    };
    match kind {
        0 => bytes[at] = b,
        1 => bytes.insert(at, b),
        _ => {
            bytes.remove(at);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn replay_capture_survives_truncation_at_every_byte() {
    let json = replay_capture();
    assert!(
        ReplayCase::from_json(&json).is_ok(),
        "the intact capture parses"
    );
    for end in 0..json.len() {
        replay_reader(&json[..end]);
    }
}

/// Parses `doc` with the replay reader and, when it is accepted, checks
/// that the case is one a replay can run to the end: every budget in range.
fn replay_reader(doc: &str) {
    if let Ok(case) = ReplayCase::from_json(doc) {
        assert!((1..=case.n).contains(&case.iterations), "{case:?}");
        assert!((1..=case.n).contains(&case.active_ports), "{case:?}");
        assert!(case.slots <= MAX_REPLAY_SLOTS, "{case:?}");
    }
}

#[test]
fn replay_refuses_budgets_no_capture_holds() {
    // Each edit is one a hand-edited capture could carry. Before the
    // bounds, the first made `an2-repro replay` spin past 10 s in PIM's
    // iteration loop; the test only parses, so a lost bound fails here
    // at once instead of hanging a replay.
    let json = replay_capture();
    let cases = [
        (
            (
                "\"iterations\": 4,",
                "\"iterations\": 18446744073709551615,",
            ),
            ReplayParseError::Iterations {
                iterations: u64::MAX,
                n: 16,
            },
        ),
        (
            ("\"iterations\": 4,", "\"iterations\": 0,"),
            ReplayParseError::Iterations {
                iterations: 0,
                n: 16,
            },
        ),
        (
            ("\"active_ports\": 16,", "\"active_ports\": 99999,"),
            ReplayParseError::ActivePorts {
                active_ports: 99_999,
                n: 16,
            },
        ),
        (
            ("\"slots\": 512,", "\"slots\": 18446744073709551615,"),
            ReplayParseError::Slots(u64::MAX),
        ),
    ];
    for ((from, to), want) in cases {
        let edited = json.replace(from, to);
        assert_ne!(edited, json, "{from} must occur in the capture");
        assert_eq!(ReplayCase::from_json(&edited), Err(want));
    }
}

#[test]
fn bench_report_survives_truncation_at_every_byte() {
    let json = bench_n16();
    assert!(
        perf::parse_cases(&json).is_ok(),
        "the cut-down report parses"
    );
    assert!(!perf::parse_scaling(&json)
        .expect("scaling parses")
        .is_empty());
    assert!(perf::compare(BENCH, &json).is_ok());
    for end in (0..json.len()).filter(|&e| json.is_char_boundary(e)) {
        bench_readers(&json[..end]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn replay_capture_survives_single_byte_edits(
        at in any::<usize>(),
        kind in 0u8..3,
        syntax in proptest::bool::ANY,
        byte in any::<u8>(),
    ) {
        replay_reader(&edit(&replay_capture(), at, kind, syntax, byte));
    }

    #[test]
    fn bench_report_survives_single_byte_edits(
        at in any::<usize>(),
        kind in 0u8..3,
        syntax in proptest::bool::ANY,
        byte in any::<u8>(),
    ) {
        bench_readers(&edit(BENCH, at, kind, syntax, byte));
    }
}
