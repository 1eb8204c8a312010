//! End-to-end tests of the `an2-repro` command-line interface.

use an2_bench::experiments::EXPERIMENTS;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_an2-repro"))
}

#[test]
fn help_lists_every_experiment() {
    let out = repro().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for e in EXPERIMENTS {
        assert!(
            text.lines().any(|l| l.trim_start().starts_with(e.name) && l.contains(e.about)),
            "usage is missing {}",
            e.name
        );
    }
    for name in [
        "faults",
        "chaos",
        "perf",
        "bench-compare",
        "replay",
        "--scenarios",
        "--fail-below",
        "--threads",
        "--verify-serial",
    ] {
        assert!(text.contains(name), "usage is missing {name}");
    }
}

#[test]
fn ignored_arguments_are_usage_errors() {
    for args in [
        &["table2", "--scenarios", "5"][..],
        &["table2", "--fail-below", "0.3"],
        &["table2", "bogus"],
    ] {
        let out = repro().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
}

#[test]
fn check_and_out_work_on_the_batch_row() {
    let dir = std::env::temp_dir().join(format!("an2-repro-batch-{}", std::process::id()));
    let out = repro()
        .args(["batch1024", "--check", "--out", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("invariants OK — 512 checks"), "{err}");
    let written = std::fs::read(dir.join("batch1024.txt")).expect("file written");
    assert_eq!(written, out.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_exits_with_usage_error() {
    let out = repro().arg("frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn missing_experiment_exits_with_usage_error() {
    let out = repro().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_is_rejected() {
    let out = repro()
        .args(["table2", "--frob"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn table2_renders_instantly() {
    let out = repro().arg("table2").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Optoelectronics"));
    assert!(text.contains("48%"));
}

#[test]
fn fig2_trace_is_deterministic_per_seed() {
    let run = |seed: &str| {
        let out = repro()
            .args(["fig2", "--seed", seed])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(run("7"), run("7"));
    assert!(run("7").contains("final matching"));
}

#[test]
fn thread_count_does_not_change_output() {
    let run = |threads: &str| {
        let out = repro()
            .args(["fig8", "--seed", "5", "--threads", threads])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("3"), "--threads changed the output bytes");
    // ...but the seed does steer it.
    let other = repro()
        .args(["fig8", "--seed", "6", "--threads", "1"])
        .output()
        .expect("binary runs");
    assert_ne!(serial, other.stdout, "--seed had no effect");
}

#[test]
fn verify_serial_confirms_determinism() {
    let out = repro()
        .args(["fig9", "--threads", "2", "--verify-serial"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("byte-identical"), "{err}");
    assert!(err.contains("digest 0x"), "{err}");
}

#[test]
fn bench_compare_prints_speedups() {
    let dir = std::env::temp_dir().join(format!("an2-bench-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // v1 baseline shape (elapsed_sec, no threads) vs v2: the comparator
    // must read both.
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(
        &old,
        "{\n  \"version\": 1,\n  \"cases\": [\n    {\"scheduler\": \"maximum\", \"n\": 256, \
         \"load\": 1.0, \"slots\": 625, \"matches\": 160000, \"elapsed_sec\": 0.17, \
         \"slots_per_sec\": 3600.0, \"matches_per_sec\": 930000.0}\n  ]\n}\n",
    )
    .expect("write old");
    std::fs::write(
        &new,
        "{\n  \"version\": 2,\n  \"threads\": 4,\n  \"cases\": [\n    {\"scheduler\": \"maximum\", \
         \"n\": 256, \"load\": 1.0, \"slots\": 625, \"matches\": 160000, \"task_wall_sec\": 0.04, \
         \"slots_per_sec\": 14400.0, \"matches_per_sec\": 3720000.0}\n  ]\n}\n",
    )
    .expect("write new");
    let out = repro()
        .args(["bench-compare", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4.00x"), "{text}");
    assert!(text.contains("maximum"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_compare_gate_fails_on_nan_or_negative_rates() {
    let dir = std::env::temp_dir().join(format!("an2-bench-compare-nan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = |rate: &str| {
        format!(
            "{{\n  \"version\": 3,\n  \"cases\": [\n    {{\"scheduler\": \"pim4\", \"n\": 16, \
             \"load\": 1.0, \"slots\": 10, \"matches\": 150, \"task_wall_sec\": 0.5, \
             \"slots_per_sec\": {rate}, \"matches_per_sec\": 300.0}}\n  ]\n}}\n"
        )
    };
    let old = dir.join("old.json");
    std::fs::write(&old, report("20.0")).expect("write old");
    for bad in ["NaN", "-5.0"] {
        let new = dir.join("new.json");
        std::fs::write(&new, report(bad)).expect("write new");
        let out = repro()
            .args([
                "bench-compare",
                old.to_str().unwrap(),
                new.to_str().unwrap(),
            ])
            .args(["--fail-below", "0.30"])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad}: {err}");
        assert!(err.contains("finite positive"), "{bad}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_dir_receives_experiment_files() {
    let dir = std::env::temp_dir().join(format!("an2-repro-cli-{}", std::process::id()));
    let out = repro()
        .args(["table2", "--out", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let written = std::fs::read_to_string(dir.join("table2.txt")).expect("file written");
    assert!(written.contains("Optoelectronics"));
    let _ = std::fs::remove_dir_all(&dir);
}
