//! `an2-repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! an2-repro <experiment|all> [--full] [--seed N] [--threads N] [--out DIR]
//! ```
//!
//! The experiments are the rows of `an2_bench::experiments::EXPERIMENTS`;
//! `an2-repro help` lists them, along with the subcommands that write JSON
//! or read files (`faults`, `chaos`, `perf`, `bench-compare`, `replay`).
//!
//! By default runs at `--quick` statistics (seconds per experiment) on
//! all available cores; pass `--full` for paper-scale sample counts.
//! Output is **bit-identical for every `--threads` value**: each sweep
//! cell seeds its own PRNG from `task_seed(root, key)` rather than from
//! its position in a shared random stream, so the work-stealing schedule
//! cannot leak into the numbers. `--verify-serial` proves it on the spot
//! by re-running the experiment on one thread and diffing the output.

use an2_bench::check::check_experiment;
use an2_bench::experiments::{self, Experiment, EXPERIMENTS};
use an2_bench::{chaos, faults, perf, Effort};
use an2_task::{fnv1a, task_seed, Pool};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const OPTIONS: &str = "usage: an2-repro <experiment|all> [--full] [--seed N] [--threads N] [--out DIR] [--verify-serial] [--check]
       an2-repro replay <replay.json>
options:
  --full           paper-scale sample counts (default: --quick)
  --seed N         root seed; every experiment derives its own seed from
                   task_seed(N, experiment-name), every sweep cell from a
                   further task key, so output depends only on N
  --threads N      worker threads (default: all cores); any value yields
                   bit-identical output
  --out DIR        also write each experiment's render to DIR/<name>.txt
  --verify-serial  re-run each experiment on 1 thread and fail unless the
                   output is byte-identical (also covers chaos; skipped
                   for perf, whose report contains wall-clock timings)
  --check          after rendering, run the experiment's invariant probe
                   (matching validity/maximality, VOQ capacity, cell
                   conservation, CBR frame consistency); reports to stderr
                   only, so stdout stays byte-identical; on a violation
                   writes replay.json and exits non-zero
  --scenarios N    chaos only: fault scenarios to soak (default 200
                   --quick, 1000 --full)
  --fail-below R   bench-compare only: exit non-zero unless the
                   geometric-mean speedup is at least R
experiments (`all` runs every one, in this order):
";

const SUBCOMMANDS: &str = "subcommands:
  faults       scripted link/port failures on a 3-switch chain: recovery
               time, drops, reroutes, CBR re-reservation; written to
               results/FAULTS.json
  chaos        seeded fault campaigns over the wide-radix engines: faults,
               degraded scheduling, recovery SLOs; writes
               results/CHAOS.json; with --check verifies conservation,
               drop ledgers and matching legality per scenario and writes
               replay.json on a violation
  perf         implementation throughput: slots/sec per scheduler,
               written to BENCH_sched.json
  bench-compare [OLD NEW]  print per-row speedup between two saved
               BENCH_sched.json files — kernel cases and the engine
               scaling section (defaults: results/BENCH_sched_pre.json
               vs BENCH_sched.json)
  replay FILE  re-execute a replay.json captured by --check to its exact
               failing slot, then greedily shrink it and write
               FILE.shrunk.json";

/// The full `--help` text: the options, one line per experiment row,
/// then the subcommands outside the table.
fn usage() -> String {
    let mut s = OPTIONS.to_owned();
    for e in EXPERIMENTS {
        let _ = writeln!(s, "  {:<14} {}", e.name, e.about);
    }
    s + SUBCOMMANDS
}

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    Help,
    All,
    Experiment(&'static Experiment),
    Faults,
    Chaos { scenarios: Option<usize> },
    Perf,
    BenchCompare { old: String, new: String, fail_below: Option<f64> },
    Replay(String),
}

/// Options shared by every subcommand.
#[derive(Debug)]
struct Options {
    effort: Effort,
    seed: u64,
    /// Worker threads; `None` means all available cores.
    threads: Option<usize>,
    verify_serial: bool,
    check: bool,
    /// Accept-phase skew for the `--check` probes (see `main`).
    skew: usize,
    out_dir: Option<PathBuf>,
}

impl Options {
    fn pool(&self) -> Pool {
        self.threads.map_or_else(Pool::available, Pool::new)
    }

    /// Where JSON reports go: `--out` if given, else `default`.
    fn dir_or<'a>(&'a self, default: &'a str) -> &'a Path {
        self.out_dir.as_deref().unwrap_or(Path::new(default))
    }
}

/// A parsed command line.
#[derive(Debug)]
struct Invocation {
    command: Command,
    options: Options,
}

/// A command line `parse` rejects; `main` prints it above the usage text
/// and exits 2.
#[derive(Debug)]
struct UsageError(String);

/// Parses the arguments after the program name. Pure: it reads no
/// environment and touches no file.
fn parse(args: &[String]) -> Result<Invocation, UsageError> {
    fn value<T: std::str::FromStr>(
        it: &mut std::slice::Iter<'_, String>,
        valid: impl Fn(&T) -> bool,
        error: &str,
    ) -> Result<T, UsageError> {
        it.next()
            .and_then(|s| s.parse().ok())
            .filter(valid)
            .ok_or_else(|| UsageError(error.into()))
    }

    let Some((cmd, rest)) = args.split_first() else {
        return Err(UsageError("missing experiment".into()));
    };
    let mut options = Options {
        effort: Effort::Quick,
        seed: 0xA52_1992,
        threads: None,
        verify_serial: false,
        check: false,
        skew: 0,
        out_dir: None,
    };
    let mut scenarios = None;
    let mut fail_below = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => options.effort = Effort::Full,
            "--quick" => options.effort = Effort::Quick,
            "--verify-serial" => options.verify_serial = true,
            "--check" => options.check = true,
            "--seed" => options.seed = value(&mut it, |_| true, "--seed needs an integer")?,
            "--threads" => {
                let t = value(&mut it, |&t| t >= 1, "--threads needs an integer >= 1")?;
                options.threads = Some(t);
            }
            "--scenarios" => {
                let c = value(&mut it, |&c| c >= 1, "--scenarios needs an integer >= 1")?;
                scenarios = Some(c);
            }
            "--fail-below" => {
                let valid = |r: &f64| r.is_finite() && *r > 0.0;
                fail_below = Some(value(&mut it, valid, "--fail-below needs a positive ratio")?);
            }
            "--out" => {
                let dir = it.next().ok_or_else(|| UsageError("--out needs a directory".into()))?;
                options.out_dir = Some(PathBuf::from(dir));
            }
            other if !other.starts_with('-') => positional.push(other.to_owned()),
            other => return Err(UsageError(format!("unknown option {other}"))),
        }
    }
    if scenarios.is_some() && cmd != "chaos" {
        return Err(UsageError("--scenarios applies to chaos only".into()));
    }
    if fail_below.is_some() && cmd != "bench-compare" {
        return Err(UsageError("--fail-below applies to bench-compare only".into()));
    }
    let command = match cmd.as_str() {
        "-h" | "--help" | "help" => Command::Help,
        "all" => Command::All,
        "faults" => Command::Faults,
        "chaos" => Command::Chaos { scenarios },
        "perf" => Command::Perf,
        "bench-compare" => {
            let (old, new) = match std::mem::take(&mut positional).as_slice() {
                [] => ("results/BENCH_sched_pre.json".to_owned(), "BENCH_sched.json".to_owned()),
                [old, new] => (old.clone(), new.clone()),
                _ => {
                    let msg = "bench-compare takes zero or two file arguments";
                    return Err(UsageError(msg.into()));
                }
            };
            Command::BenchCompare { old, new, fail_below }
        }
        "replay" => match std::mem::take(&mut positional).as_slice() {
            [path] => Command::Replay(path.clone()),
            _ => return Err(UsageError("replay takes exactly one replay.json file".into())),
        },
        name => Command::Experiment(
            experiments::find(name)
                .ok_or_else(|| UsageError(format!("unknown experiment {name}")))?,
        ),
    };
    if let Some(extra) = positional.first() {
        return Err(UsageError(format!("{cmd} takes no argument {extra}")));
    }
    Ok(Invocation { command, options })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Invocation {
        command,
        mut options,
    } = parse(&args).unwrap_or_else(|UsageError(e)| {
        eprintln!("{e}\n{}", usage());
        std::process::exit(2);
    });
    // Hidden hook for demonstrating the checker end to end: skews PIM's
    // accept phase in the --check probes (never in the experiments).
    options.skew = std::env::var("AN2_CHECK_SKEW")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if let Some(dir) = &options.out_dir {
        create_dir(dir);
    }
    match command {
        Command::Help => println!("{}", usage()),
        Command::All => {
            for experiment in EXPERIMENTS {
                run_one(experiment, &options);
                println!();
            }
        }
        Command::Experiment(experiment) => run_one(experiment, &options),
        Command::Faults => run_faults(&options),
        Command::Chaos { scenarios } => run_chaos(&options, scenarios),
        Command::Perf => run_perf(&options),
        Command::BenchCompare {
            old,
            new,
            fail_below,
        } => run_bench_compare(&old, &new, fail_below),
        Command::Replay(path) => run_replay(&path),
    }
}

/// Creates `dir`, or exits 1 saying why it cannot.
fn create_dir(dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
}

/// Writes `contents` to `path`, or exits 1 saying why it cannot.
fn write_file(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Writes a failing case to `replay.json` in `--out` (else the current
/// directory) and exits 1.
fn capture_and_exit(label: &str, json: &str, options: &Options) -> ! {
    let path = options.dir_or(".").join("replay.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!(
            "[{label}: wrote {}; run `an2-repro replay {}` to reproduce and shrink]",
            path.display(),
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    std::process::exit(1);
}

/// `perf` measures the implementation rather than reproducing a figure,
/// so it writes `BENCH_sched.json` (to `--out` if given, else the current
/// directory) instead of a `.txt` render.
fn run_perf(options: &Options) {
    let report = perf::run(
        options.effort,
        task_seed(options.seed, "perf"),
        &options.pool(),
    );
    print!("{}", report.render());
    let path = options.dir_or(".").join("BENCH_sched.json");
    write_file(&path, &report.to_json());
    eprintln!(
        "[perf finished in {:.3}s on {} threads; wrote {}]",
        report.total_wall_sec,
        report.threads,
        path.display()
    );
}

/// `faults` measures robustness rather than reproducing a figure, so it
/// writes `FAULTS.json` (to `--out` if given, else `results/`) instead of
/// a `.txt` render.
fn run_faults(options: &Options) {
    let started = std::time::Instant::now();
    let report = faults::run(options.effort, task_seed(options.seed, "faults"));
    print!("{}", report.render());
    let dir = options.dir_or("results");
    create_dir(dir);
    let path = dir.join("FAULTS.json");
    write_file(&path, &report.to_json());
    eprintln!(
        "[faults finished in {:.1?}; wrote {}]",
        started.elapsed(),
        path.display()
    );
}

/// `bench-compare`: print the per-case speedup between two saved
/// `BENCH_sched.json` reports; with `--fail-below R`, exit non-zero when
/// the geometric-mean speedup falls under `R` (the CI regression gate).
fn run_bench_compare(old_path: &str, new_path: &str, fail_below: Option<f64>) {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    match perf::compare_with_geomean(&read(old_path), &read(new_path)) {
        Ok((table, geomean)) => {
            print!("{table}");
            if let Some(floor) = fail_below {
                if geomean < floor {
                    eprintln!(
                        "bench-compare: geometric-mean speedup {geomean:.2}x \
                         is below the required {floor:.2}x"
                    );
                    std::process::exit(1);
                }
                eprintln!("[bench-compare: {geomean:.2}x >= required {floor:.2}x]");
            }
        }
        Err(e) => {
            eprintln!("bench-compare: {e}");
            std::process::exit(1);
        }
    }
}

/// `chaos`: soak randomized fault campaigns through the wide-radix stack,
/// record recovery SLOs to `results/CHAOS.json`, and (with `--check`)
/// fail on any invariant violation, capturing a replayable case.
fn run_chaos(options: &Options, scenarios: Option<usize>) {
    let count = scenarios.unwrap_or(options.effort.scale(200, 1_000) as usize);
    let root = task_seed(options.seed, "chaos");
    let pool = options.pool();
    let run = |pool: &Pool| chaos::run(count, root, options.check, options.skew, pool);
    let started = std::time::Instant::now();
    let report = run(&pool);
    let out = report.render();
    print!("{out}");
    if options.verify_serial && pool.threads() > 1 {
        if run(&Pool::serial()).render() != out {
            eprintln!(
                "[chaos: DETERMINISM VIOLATION — {}-thread output differs from serial]",
                pool.threads()
            );
            std::process::exit(1);
        }
        eprintln!("[chaos: serial re-run is byte-identical]");
    }
    let dir = options.dir_or("results");
    create_dir(dir);
    let json_path = dir.join("CHAOS.json");
    write_file(&json_path, &report.to_json());
    if let Some(fail) = report.first_failure() {
        eprintln!(
            "[chaos: INVARIANT VIOLATION in scenario {} ({} {}) — {}]",
            fail.index,
            fail.engine,
            fail.pattern,
            fail.violation.as_deref().unwrap_or("")
        );
        let case = report.replay_case().expect("failure implies a case");
        capture_and_exit("chaos", &case.to_json(), options);
    }
    eprintln!(
        "[chaos finished in {:.3}s on {} threads — {count} scenarios, 0 violations; wrote {}]",
        started.elapsed().as_secs_f64(),
        pool.threads(),
        json_path.display()
    );
}

/// Renders one experiment row to stdout (and `--out`), then runs the
/// serial re-run and the invariant probe if asked.
fn run_one(experiment: &Experiment, options: &Options) {
    let name = experiment.name;
    let started = std::time::Instant::now();
    let pool = options.pool();
    let out = experiment.render(options.effort, options.seed, &pool);
    print!("{out}");
    if let Some(dir) = &options.out_dir {
        write_file(&dir.join(format!("{name}.txt")), &out);
    }
    let digest = fnv1a(out.as_bytes());
    if options.verify_serial {
        let serial = experiment.render(options.effort, options.seed, &Pool::serial());
        if serial != out {
            eprintln!(
                "[{name}: DETERMINISM VIOLATION — {}-thread output differs from serial \
                 (digests {digest:#018x} vs {:#018x})]",
                pool.threads(),
                fnv1a(serial.as_bytes())
            );
            std::process::exit(1);
        }
        eprintln!("[{name}: serial re-run is byte-identical]");
    }
    if options.check {
        run_check(experiment, options);
    }
    eprintln!(
        "[{name} finished in {:.1?}; digest {digest:#018x}]",
        started.elapsed()
    );
}

/// Runs the experiment's invariant probe. Stderr only: stdout must stay
/// byte-identical with and without `--check`.
fn run_check(experiment: &Experiment, options: &Options) {
    let name = experiment.name;
    match check_experiment(experiment, task_seed(options.seed, name), options.skew) {
        Ok(summary) => eprintln!(
            "[{name}: invariants OK — {} checks over probe `{}`]",
            summary.checks, summary.probe
        ),
        Err(failure) => {
            eprintln!(
                "[{name}: INVARIANT VIOLATION at slot {} — {} (probe `{}`)]",
                failure.violation.slot, failure.violation, failure.probe
            );
            capture_and_exit(name, &failure.case.to_json(), options);
        }
    }
}

/// `replay FILE`: re-execute a captured failing case to its exact slot,
/// then shrink it and save the minimised reproduction.
fn run_replay(path: &str) {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let case = an2_verify::ReplayCase::from_json(&json).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let outcome = an2_verify::run_case(&case);
    match &outcome.violation {
        Some(v) => {
            println!(
                "reproduced: {v} (after {} slots, {} checks, {} cells delivered)",
                outcome.slots_run, outcome.checks, outcome.delivered
            );
            if let Some(expected) = case.failing_slot {
                if expected != v.slot {
                    println!("note: capture was annotated with slot {expected}");
                }
            }
            let shrunk = an2_verify::shrink(&case).expect("failing case must shrink");
            println!(
                "shrunk: {} slots, {} active ports (from {} slots, {} ports)",
                shrunk.slots, shrunk.active_ports, case.slots, case.active_ports
            );
            let out_path = format!("{path}.shrunk.json");
            match std::fs::write(&out_path, shrunk.to_json()) {
                Ok(()) => println!("wrote {out_path}"),
                Err(e) => {
                    eprintln!("cannot write {out_path}: {e}");
                    std::process::exit(1);
                }
            }
            std::process::exit(1);
        }
        None => {
            println!(
                "case ran clean: {} slots, {} checks, {} cells delivered, {} dropped",
                outcome.slots_run, outcome.checks, outcome.delivered, outcome.dropped
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tokens the fuzzer draws from: every command, every flag, values
    /// that do and do not parse, and junk.
    fn vocabulary() -> Vec<String> {
        let mut v: Vec<String> = EXPERIMENTS.iter().map(|e| e.name.to_owned()).collect();
        for t in [
            "all", "help", "-h", "--help", "faults", "chaos", "perf", "bench-compare", "replay",
            "--full", "--quick", "--seed", "--threads", "--out", "--check", "--verify-serial",
            "--scenarios", "--fail-below", "0", "1", "7", "-3", "0.3", "1e9", "NaN", "inf",
            "18446744073709551616", "", "-", "--", "x", "é", "--seed=7", "dir/out.json",
        ] {
            v.push(t.to_owned());
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any token vector parses or is rejected; it never panics, and a
        /// parsed experiment is the row its first token names.
        #[test]
        fn parse_never_panics(picks in proptest::collection::vec(0usize..1000, 0..8)) {
            let vocab = vocabulary();
            let tokens: Vec<String> =
                picks.iter().map(|&i| vocab[i % vocab.len()].clone()).collect();
            if let Ok(Invocation { command: Command::Experiment(e), .. }) = parse(&tokens) {
                prop_assert_eq!(e.name, tokens[0].as_str());
            }
        }
    }

    #[test]
    fn subcommand_flags_and_stray_arguments_are_rejected() {
        for bad in [
            "table1 --scenarios 5",
            "perf --fail-below 0.3",
            "table2 bogus",
            "net1000 --seed 7 extra",
            "chaos extra",
            "replay",
            "bench-compare one.json",
            "table1 --threads 0",
        ] {
            let args: Vec<String> = bad.split(' ').map(str::to_owned).collect();
            assert!(parse(&args).is_err(), "{bad} parsed");
        }
    }
}
