//! The `mate-analyze` exit-code contract: 0 when every target passes the
//! gate, 1 when the ingest lint gate rejects an external netlist, 2 on a
//! usage error (including the removed `--proof` and `--cap` flags), and 3
//! on a runtime error such as a missing input file.

use std::path::{Path, PathBuf};
use std::process::Command;

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

#[test]
fn mate_analyze_exit_codes() {
    let scratch = Scratch::new("exit-codes");
    let uart = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/vendor/netlists/uart_tx/uart_tx.json"
    );

    // 0: the vendored UART proves every MATE and lints clean.
    let pass = [
        "--core", "none", "--json", uart, "--deny", "bounded", "--deny", "error",
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
        &["--core", "none", "--json", uart, "--proof", "sat"][..],
        &["--core", "none", "--json", uart, "--cap", "1"],
        &["--core", "none", "--json", uart, "--no-such-flag"],
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
