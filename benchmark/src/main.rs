//! The repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! vw-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!              [--quick] [--aa N] [--bless]
//! ```
//!
//! With `--workload` it measures that workload in this process and prints,
//! as its last line, the one-line JSON result. Without, it runs every
//! workload, each in a fresh process of this same executable. `--aa N`
//! repeats that N times with N seeds and reports the run-to-run noise.

mod alloc;
mod gen;
mod harness;
mod layers;
mod machine;
mod metrics;
mod oracle;
mod queries;
mod rng;
mod stats;
mod trace;
mod workloads;

use harness::{run, RunOpts};
use metrics::{json_num, MetricDef, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed whose answers are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1;
/// How long one run measures; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    bless: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        bless: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--aa" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 repetitions".into());
                }
                a.aa = Some(n);
            }
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.bless && (a.seed != DEFAULT_SEED || a.quick) {
        return Err(format!("--bless records the full-size answers of seed {DEFAULT_SEED} only"));
    }
    Ok(a)
}

fn print_metrics(values: &metrics::Values, defs: &[MetricDef]) {
    for m in defs {
        println!(
            "  {:<36} {:>16.6} {:<9} {} is better",
            m.name,
            values.get(m.name),
            m.unit,
            m.better
        );
    }
}

/// Measure one workload here and print the contract's result line.
fn run_one(w: Workload, a: &Args) -> ExitCode {
    let outcome = run(&RunOpts {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        bless: a.bless,
    });
    println!(
        "workload {} seed {} attempted {} failed {}",
        w.name(),
        a.seed,
        outcome.attempted,
        outcome.failed
    );
    print_metrics(&outcome.values, &END_TO_END);
    if a.trace {
        print_metrics(&outcome.values, &PER_LAYER);
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.values.json(if a.trace { &PER_LAYER } else { &END_TO_END }),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child(w: Workload, a: &Args, seed: u64) -> Command {
    let mut c = Command::new(std::env::current_exe().expect("own executable path"));
    c.args(["--workload", w.name(), "--seed", &seed.to_string()]);
    c.args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }]);
    if a.quick {
        c.arg("--quick");
    }
    if a.bless {
        c.arg("--bless");
    }
    c
}

/// Every workload, each in its own fresh process, output passed through.
fn run_all(a: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        let status = child(w, a, a.seed).status().expect("start workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `"name": {"value": <number>` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// A/A: `n` fresh-process repetitions of each workload, alternating
/// workloads, one seed per repetition. Per end-to-end metric: median,
/// quartiles, their spread as a share of the median (what the acceptance
/// check computes), and the larger of the two half-against-half
/// differences of medians (first half vs second, even runs vs odd).
fn run_aa(a: &Args, n: usize) -> ExitCode {
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; 4];
    let mut ok = true;
    for rep in 0..n {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            let seed = a.seed + rep as u64;
            let out =
                child(w, a, seed).stdout(Stdio::piped()).output().expect("start workload process");
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or("");
            eprintln!("aa run {} of {n} {} seed {seed}: {line}", rep + 1, w.name());
            ok &= out.status.success();
            for (mi, m) in END_TO_END.iter().enumerate() {
                match metric_value(line, m.name) {
                    Some(v) => values[wi][mi].push(v),
                    None => ok = false,
                }
            }
        }
    }
    let mut report = String::new();
    writeln!(
        report,
        "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | half vs half |\n\
         |---|---|---|---|---|---|---|---|"
    )
    .expect("write to String");
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            if v.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(v);
            let half = v.len() / 2;
            let first_second =
                (stats::median(&v[..half]) - stats::median(&v[v.len() - half..])).abs();
            let every_other = |skip| v.iter().copied().skip(skip).step_by(2).collect::<Vec<_>>();
            let even_odd = (stats::median(&every_other(0)) - stats::median(&every_other(1))).abs();
            writeln!(
                report,
                "| {} | {} | {} | {} | {} | {} | {:.4} | {:.4} |",
                w.name(),
                m.name,
                m.unit,
                json_num(q2),
                json_num(q1),
                json_num(q3),
                (q3 - q1) / q2,
                first_second.max(even_odd) / q2,
            )
            .expect("write to String");
        }
    }
    print!("{report}");
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    std::fs::write(out_dir().join("noise.md"), &report).expect("write noise report");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // The engine reads VW_* overrides when a default config is built; the
    // benchmark's configuration is explicit, so none may leak in.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VW_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vw-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.aa) {
        (Some(w), _) => run_one(w, &args),
        (None, Some(n)) => run_aa(&args, n),
        (None, None) => run_all(&args),
    }
}
