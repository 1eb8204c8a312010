//! `an2-benchmark`: end-to-end and per-layer performance of the AN2
//! switch-scheduling engines on four workloads.
//!
//! ```text
//! an2-benchmark [--workload NAME|all] [--seed N] [--rounds R | --seconds S] [--trace 0|1]
//! ```
//!
//! Rounds run interleaved across the chosen workloads (w1, w2, …, w1, …)
//! so host drift hits each alike, each in a fresh child process of this
//! binary. `--rounds` fixes the untraced rounds per workload (default 5);
//! `--seconds` instead plans as many as fit the budget at each workload's
//! nominal round time, at least two. One traced round per workload follows
//! unless `--trace 0`. The last line of stdout is one JSON object,
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1`
//! the per-layer ones, and both without `--trace`. With several workloads
//! each metric name is prefixed by `<workload>/`. The line before it is
//! the full record: host, seed, per-round digests and every metric. A
//! human-readable table goes to stderr. The exit code is 0 only if every
//! correctness check passed.
//!
//! See README.md in this directory for the workloads and metric
//! definitions.

mod json;
mod stats;
mod summary;
mod trace;
mod workloads;

use json::Json;
use std::process::{Command, ExitCode};
use summary::Metric;
use workloads::{run_round, Round, Size, Workload};

const USAGE: &str =
    "usage: an2-benchmark [--workload NAME|all] [--seed N] [--rounds R | --seconds S] [--trace 0|1]";

/// Untraced rounds per workload when neither `--rounds` nor `--seconds`
/// is given.
const DEFAULT_ROUNDS: u32 = 5;

/// Fewest untraced rounds a `--seconds` budget runs: the cross-round
/// digest check needs two.
const MIN_ROUNDS: u32 = 2;

/// How many untraced rounds to run per workload.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Budget {
    Rounds(u32),
    Seconds(f64),
}

impl Budget {
    /// Untraced rounds per workload. A time budget is divided by the
    /// workloads' nominal round times ([`Workload::round_s`]), with one
    /// pass set aside for the traced round. The count depends on the
    /// command line only: the host metrics keep each chunk's fastest
    /// repeat, and more rounds would make them faster by themselves.
    fn rounds(self, workloads: &[Workload], traced: bool) -> u32 {
        match self {
            Budget::Rounds(r) => r,
            Budget::Seconds(s) => {
                let pass: f64 = workloads.iter().map(|w| w.round_s()).sum();
                // `as` saturates, so a huge budget cannot wrap.
                let passes = (s / pass).floor() as u32;
                passes.saturating_sub(u32::from(traced)).max(MIN_ROUNDS)
            }
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    budget: Budget,
    /// `None`: run the traced round and report both metric sets.
    trace: Option<bool>,
    /// Internal: run one round in this process and print it.
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        budget: Budget::Rounds(DEFAULT_ROUNDS),
        trace: None,
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => args.workloads = vec![Workload::from_name(value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--rounds" => match value.parse() {
                Ok(r) if r >= 1 => args.budget = Budget::Rounds(r),
                _ => return Err(bad()),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => args.budget = Budget::Seconds(s),
                _ => return Err(bad()),
            },
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.child && args.workloads.len() != 1 {
        return Err("--child runs exactly one workload".into());
    }
    Ok(args)
}

/// Runs one round in a fresh child process of this binary and reads back
/// its [`Round`] from the last line of the child's stdout.
fn spawn_round(w: Workload, seed: u64, traced: bool) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run a {} round: {e}", w.name()))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{} round failed: {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).and_then(|j| Round::from_json(&j))
}

/// Output of a command, trimmed, if it ran and succeeded.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and toolchain a result was measured on.
fn host() -> Json {
    let text = |path: &str| std::fs::read_to_string(path).ok();
    let cpu = text("/proc/cpuinfo").and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    // Stop git at the working directory, so a checkout without `.git`
    // reports no commit rather than that of some enclosing repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let commit = command_output(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    let opt = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu", opt(cpu)),
        (
            "kernel",
            opt(text("/proc/sys/kernel/osrelease").map(|s| s.trim().to_string())),
        ),
        ("commit", opt(commit)),
        (
            "rustc",
            opt(command_output(Command::new("rustc").arg("-V"))),
        ),
    ])
}

/// One workload's rounds, metrics and checks.
struct Outcome {
    workload: Workload,
    rounds: Vec<Round>,
    traced: Option<Round>,
    checks: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn end_to_end(&self) -> Vec<Metric> {
        summary::end_to_end(&self.rounds)
    }

    fn per_layer(&self) -> Vec<Metric> {
        self.traced
            .as_ref()
            .map_or_else(Vec::new, |t| summary::per_layer(&self.rounds, t))
    }
}

fn run(args: &Args) -> Result<Vec<Outcome>, String> {
    let traced = args.trace != Some(false);
    let mut rounds: Vec<Vec<Round>> = vec![Vec::new(); args.workloads.len()];
    for _ in 0..args.budget.rounds(&args.workloads, traced) {
        for (k, &w) in args.workloads.iter().enumerate() {
            rounds[k].push(spawn_round(w, args.seed, false)?);
        }
    }
    let mut outcomes = Vec::new();
    for (w, rounds) in args.workloads.iter().zip(rounds) {
        let traced = if traced {
            Some(spawn_round(*w, args.seed, true)?)
        } else {
            None
        };
        let (mut checks, mut failures) = summary::cross_round_checks(&rounds, traced.as_ref());
        for r in rounds.iter().chain(&traced) {
            checks += r.checks;
            failures.extend(r.failures.iter().cloned());
        }
        outcomes.push(Outcome {
            workload: *w,
            rounds,
            traced,
            checks,
            failures,
        });
    }
    Ok(outcomes)
}

/// `{"value": v, "unit": u}`: the shape of every metric in the output.
fn metric_json(m: &Metric) -> Json {
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| (m.name, metric_json(m))))
}

fn report(args: &Args, host: &Json, outcomes: &[Outcome]) -> bool {
    let mut record = Vec::new();
    let mut summary = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let prefix = outcomes.len() > 1;
    for o in outcomes {
        let name = o.workload.name();
        let (e2e, layers) = (o.end_to_end(), o.per_layer());
        eprintln!(
            "\n{name}: {} rounds + {} traced",
            o.rounds.len(),
            u8::from(o.traced.is_some())
        );
        for m in e2e.iter().chain(&layers) {
            eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        eprintln!("  checks {} failed {}", o.checks, o.failures.len());
        for f in &o.failures {
            eprintln!("  FAILED: {f}");
        }
        attempted += o.checks;
        failed += o.failures.len() as u64;
        let shown = match args.trace {
            Some(false) => e2e.clone(),
            Some(true) => layers.clone(),
            None => [e2e.clone(), layers.clone()].concat(),
        };
        for m in shown {
            let key = if prefix {
                format!("{name}/{}", m.name)
            } else {
                m.name.to_string()
            };
            summary.push((key, metric_json(&m)));
        }
        let digests = o
            .rounds
            .iter()
            .chain(&o.traced)
            .map(|r| Json::Str(format!("{:016x}", r.digest)));
        record.push((
            name,
            Json::obj([
                ("rounds", Json::Num(o.rounds.len() as f64)),
                ("digests", Json::Arr(digests.collect())),
                ("end_to_end", metrics_json(&e2e)),
                ("per_layer", metrics_json(&layers)),
                ("checks", Json::Num(o.checks as f64)),
                (
                    "failures",
                    Json::Arr(o.failures.iter().cloned().map(Json::Str).collect()),
                ),
            ]),
        ));
    }
    println!(
        "{}",
        Json::obj([
            ("host", host.clone()),
            ("seed", Json::Str(args.seed.to_string())),
            ("workloads", Json::obj(record)),
        ])
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(summary)),
        ])
    );
    failed == 0
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("an2-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let round = run_round(
            args.workloads[0],
            args.seed,
            Size::Full,
            args.trace == Some(true),
        );
        println!("{}", round.to_json());
        return ExitCode::SUCCESS;
    }
    let host = host();
    eprintln!("an2-benchmark: seed {} host {host}", args.seed);
    match run(&args) {
        Ok(outcomes) if report(&args, &host, &outcomes) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("an2-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn timed_single_workload_command_line_parses() {
        let a = parse("--workload ring1000 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::Ring1000]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.budget, Budget::Seconds(10.0));
        assert_eq!(a.trace, Some(true));
        let d = parse("").unwrap();
        assert_eq!(d.workloads, Workload::ALL.to_vec());
        assert_eq!(d.budget, Budget::Rounds(DEFAULT_ROUNDS));
        assert_eq!(d.trace, None);
    }

    #[test]
    fn a_time_budget_plans_a_fixed_round_count() {
        let plan = |s: f64, ws: &[Workload], traced: bool| Budget::Seconds(s).rounds(ws, traced);
        // The 25 s single-workload runs BENCHMARK.json makes.
        let untraced: Vec<u32> = Workload::ALL
            .iter()
            .map(|&w| plan(25.0, &[w], false))
            .collect();
        assert_eq!(untraced, [10, 9, 10, 8]);
        for (&w, &r) in Workload::ALL.iter().zip(&untraced) {
            // The traced round takes the place of one untraced pass.
            assert_eq!(plan(25.0, &[w], true), r - 1);
            // More time never plans fewer rounds; too little still plans two.
            assert!(plan(60.0, &[w], false) >= r);
            assert_eq!(plan(0.1, &[w], true), MIN_ROUNDS);
        }
        // All four interleaved share one pass of ~10 s.
        assert_eq!(plan(25.0, &Workload::ALL, false), 2);
        assert_eq!(plan(f64::MAX, &Workload::ALL, true), u32::MAX - 1);
        assert_eq!(Budget::Rounds(3).rounds(&Workload::ALL, true), 3);
    }

    #[test]
    fn bad_arguments_are_typed_errors() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seed",
            "--rounds 0",
            "--seconds nan",
            "--seconds 0",
            "--trace 2",
            "--frobnicate 1",
            "--child",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
