//! The `mate-analyze` exit-code contract: 0 when every target passes the
//! gate, 1 when the ingest lint gate rejects an external netlist, 2 on a
//! usage error (including the removed `--proof` and `--cap` flags), and 3
//! on a runtime error such as a missing input file.  Two runs that fill one
//! artifact store at once agree, and leave a store that serves them.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use fault_space_pruning::analyze::VerifyConfig;
use fault_space_pruning::pipeline::{ArtifactStore, DesignSource, Flow, WireSetSpec};
use mate_bench::table_search_config;

/// A per-test scratch directory (artifact store and input files), removed
/// on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mate-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `mate-analyze` with `args` against the store under `scratch` and
/// returns its exit code.
fn exit_code(scratch: &Scratch, args: &[&str]) -> i32 {
    let output = Command::new(env!("CARGO_BIN_EXE_mate-analyze"))
        .args(args)
        .env("MATE_ARTIFACT_DIR", scratch.0.join("artifacts"))
        .output()
        .expect("mate-analyze runs");
    output.status.code().unwrap_or_else(|| {
        panic!(
            "mate-analyze killed by a signal: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 test path")
}

const UART: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/vendor/netlists/uart_tx/uart_tx.json"
);

#[test]
fn mate_analyze_exit_codes() {
    let scratch = Scratch::new("exit-codes");

    // 0: the vendored UART proves every MATE and lints clean.
    let pass = [
        "--core", "none", "--json", UART, "--deny", "bounded", "--deny", "error",
    ];
    assert_eq!(exit_code(&scratch, &pass), 0, "vendored uart_tx passes");

    // 1: a netlist with no modules is rejected by the ingest gate.
    let empty = scratch.0.join("empty.json");
    std::fs::write(&empty, r#"{"modules":{}}"#).unwrap();
    assert_eq!(
        exit_code(&scratch, &["--core", "none", "--json", path_arg(&empty)]),
        1,
        "ingest rejection is a gate failure"
    );

    // 2: usage errors, including the flags that used to select the
    // enumeration backend.
    for args in [
        &["--core", "none", "--json", UART, "--proof", "sat"][..],
        &["--core", "none", "--json", UART, "--cap", "1"],
        &["--core", "none", "--json", UART, "--no-such-flag"],
    ] {
        assert_eq!(exit_code(&scratch, args), 2, "{args:?} is a usage error");
    }

    // 3: a missing input file is a runtime error.
    let missing = scratch.0.join("missing.json");
    assert_eq!(
        exit_code(&scratch, &["--core", "none", "--json", path_arg(&missing)]),
        3,
        "a missing netlist is a runtime error"
    );
}

/// Two processes fill one empty store at once: both pass with the same
/// output, and a flow over that store afterwards computes nothing.
#[test]
fn concurrent_runs_fill_one_store() {
    let scratch = Scratch::new("concurrent");
    let store = scratch.0.join("artifacts");
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_mate-analyze"))
            .args(["--core", "none", "--json", UART, "--deny", "bounded"])
            .env("MATE_ARTIFACT_DIR", &store)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("mate-analyze starts")
    };
    let runs = [spawn(), spawn()].map(|run| run.wait_with_output().expect("mate-analyze ends"));
    for run in &runs {
        assert_eq!(
            run.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    assert!(!runs[0].stdout.is_empty());
    assert_eq!(runs[0].stdout, runs[1].stdout);

    // The stages `--json` runs, with the CLI's defaults.
    let source = DesignSource::YosysJson {
        path: UART.into(),
        top: None,
    };
    let mut flow = Flow::new(ArtifactStore::new(&store), source).unwrap();
    let search = flow
        .search(WireSetSpec::AllFfs, table_search_config())
        .unwrap();
    let config = VerifyConfig {
        threads: 0,
        conflict_budget: 1_000_000,
    };
    flow.analyze((&search.value.mates, search.key), config)
        .unwrap();
    assert!(flow.summary().all_cached(), "{}", flow.summary());
}
