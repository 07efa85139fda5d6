//! `mate-e2e`: the end-to-end paper-flow benchmark (see `README.md`).
//!
//! Exit codes: 0 all correctness gates passed, 1 a gate failed (the
//! result line is still printed), 2 usage error, 3 the run itself failed.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mate_e2e_bench::rep::{run_rep, unix_ns, RepOutcome};
use mate_e2e_bench::report::{render_line, render_report, render_spans, render_table, WorkloadRun};
use mate_e2e_bench::workload::{find, Workload, SMOKE, WORKLOADS};

const USAGE: &str = "\
usage: mate-e2e [--workload NAME] [--seed N] [--reps N | --seconds S]
                [--trace 0|1] [--report FILE] [--spans FILE] [--smoke]

  --workload NAME  run one workload (default: every workload, each with one
                   extra traced rep)
  --seed N         input seed (default 1)
  --reps N         untraced reps per workload (default 5)
  --seconds S      instead of --reps: start reps while the next one should
                   end within S seconds (at least 3)
  --trace 0|1      with --workload: 1 runs traced reps only and reports the
                   per-layer metrics instead of the end-to-end ones
  --report FILE    the JSON report (default: e2e-report.json next to this
                   executable)
  --spans FILE     write the spans of the traced reps as JSON lines
  --smoke          uart_tx at 1024 cycles, 2 untraced + 1 traced rep";

/// Fewest repetitions a time-boxed run makes, so its median means something.
const MIN_TIMED_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    trace: bool,
    report: Option<PathBuf>,
    spans: Option<PathBuf>,
    smoke: bool,
    /// Internal: run one repetition into this store and report on stdout.
    child_store: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        reps: 5,
        seconds: None,
        trace: false,
        report: None,
        spans: None,
        smoke: false,
        child_store: None,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(find(&value).ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--reps" => a.reps = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
            "--seconds" => {
                a.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--report" => a.report = Some(value.into()),
            "--spans" => a.spans = Some(value.into()),
            "--child-store" => a.child_store = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// How many repetitions to run.
#[derive(Clone, Copy, Debug)]
enum Count {
    Fixed(usize),
    For(Duration),
}

impl Count {
    /// Whether to start another repetition after `done` of them took
    /// `elapsed`: a time box starts one only while the mean repetition
    /// still ends inside it.
    fn more(self, done: usize, elapsed: Duration) -> bool {
        match self {
            Self::Fixed(n) => done < n,
            Self::For(budget) => done < MIN_TIMED_REPS || elapsed + elapsed / done as u32 <= budget,
        }
    }
}

/// A per-repetition store directory, removed when dropped — whether the
/// repetition succeeded, failed or panicked.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one repetition in a child process and parses its report.
fn run_child(
    exe: &Path,
    workload: &Workload,
    seed: u64,
    traced: bool,
    store: &Path,
) -> Result<RepOutcome, String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--child-store")
        .arg(store)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("rep exited with {}", output.status));
    }
    RepOutcome::parse(&String::from_utf8_lossy(&output.stdout))
}

fn run_reps(
    exe: &Path,
    stores: &Path,
    workload: &Workload,
    seed: u64,
    count: Count,
    traced: bool,
) -> Vec<Result<RepOutcome, String>> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while count.more(reps.len(), start.elapsed()) {
        let store = StoreDir(stores.join(format!(
            "{}-{}-{}{}",
            std::process::id(),
            workload.name,
            if traced { "t" } else { "u" },
            reps.len()
        )));
        let _ = std::fs::remove_dir_all(&store.0);
        let rep = run_child(exe, workload, seed, traced, &store.0);
        match &rep {
            Ok(r) => eprintln!(
                "{} rep {}{}: cold {:.3} s",
                workload.name,
                reps.len(),
                if traced { " (traced)" } else { "" },
                r.metrics.get("flow_cold_s").copied().unwrap_or(f64::NAN)
            ),
            Err(e) => eprintln!("{} rep {}: {e}", workload.name, reps.len()),
        }
        reps.push(rep);
    }
    reps
}

fn child(args: &Args, store: &Path) -> ExitCode {
    let Some(workload) = args.workload else {
        eprintln!("mate-e2e: a rep needs --workload");
        return ExitCode::from(2);
    };
    match run_rep(&workload, args.seed, store) {
        Ok(outcome) => {
            print!("{}", outcome.render(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mate-e2e: {}: {e}", workload.name);
            ExitCode::from(3)
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("mate-e2e: {e}\n{USAGE}\n\nworkloads: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    if let Some(store) = &args.child_store {
        return child(&args, store);
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mate-e2e: cannot locate own executable: {e}");
            return ExitCode::from(3);
        }
    };
    // Stores live in the build directory, never in the default artifact
    // store or the one `MATE_ARTIFACT_DIR` names.
    let out_dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    let stores = out_dir.join("e2e-stores");
    if let Err(e) = std::fs::create_dir_all(&stores) {
        eprintln!("mate-e2e: cannot create {}: {e}", stores.display());
        return ExitCode::from(3);
    }

    // (workload, untraced reps, traced reps)
    let count = args.seconds.map_or(Count::Fixed(args.reps), |s| {
        Count::For(Duration::from_secs_f64(s))
    });
    let plan: Vec<(Workload, Count, Count)> = if args.smoke {
        vec![(SMOKE, Count::Fixed(2), Count::Fixed(1))]
    } else if let Some(w) = args.workload {
        if args.trace {
            vec![(w, Count::Fixed(0), count)]
        } else {
            vec![(w, count, Count::Fixed(0))]
        }
    } else {
        WORKLOADS
            .iter()
            .map(|&w| (w, count, Count::Fixed(1)))
            .collect()
    };

    let mut runs = Vec::new();
    let mut results = Vec::new();
    for (workload, untraced, traced) in plan {
        let start_ns = unix_ns();
        let untraced = run_reps(&exe, &stores, &workload, args.seed, untraced, false);
        let traced = run_reps(&exe, &stores, &workload, args.seed, traced, true);
        let run = WorkloadRun {
            workload,
            seed: args.seed,
            untraced,
            traced,
            span_ns: (start_ns, unix_ns()),
        };
        let result = run.result();
        print!("{}", render_table(&run, &result));
        runs.push(run);
        results.push(result);
    }
    // Only removes the directory when no other run is using it.
    let _ = std::fs::remove_dir(&stores);

    let report = args
        .report
        .clone()
        .unwrap_or_else(|| out_dir.join("e2e-report.json"));
    let mut io_ok = write_file(&report, &render_report(&runs, &results, args.seed))
        .map_err(|e| eprintln!("mate-e2e: {e}"))
        .is_ok();
    if let Some(path) = &args.spans {
        io_ok &= write_file(path, &render_spans(&runs))
            .map_err(|e| eprintln!("mate-e2e: {e}"))
            .is_ok();
    }
    // The one-line result is the last line of standard output.
    let per_layer = args.trace && args.workload.is_some() && !args.smoke;
    println!("{}", render_line(&results, per_layer));
    if !io_ok {
        ExitCode::from(3)
    } else if results.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
