//! Workspace smoke test: all examples under `examples/` compile, and the
//! quickstart and parallel-search examples run to completion.
//!
//! Uses the same `cargo` that launched the test (`CARGO` env), sharing the
//! target directory, so in CI this mostly re-validates cached artifacts.

use std::path::Path;
use std::process::Command;

fn cargo() -> Command {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut c = Command::new(cargo);
    c.current_dir(env!("CARGO_MANIFEST_DIR"));
    c
}

/// Every `examples/*.rs` file has a matching auto-discovered example
/// target, and they all compile.
#[test]
fn all_examples_compile() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let found: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/ exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "rs"))
                .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    assert!(found.len() >= 7, "expected the seven seed examples, found {found:?}");

    let out = cargo().args(["build", "--examples"]).output().expect("cargo runs");
    assert!(
        out.status.success(),
        "cargo build --examples failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The quickstart example runs to completion and prints its final marker.
#[test]
fn quickstart_runs_to_completion() {
    let out = cargo().args(["run", "-q", "--example", "quickstart"]).output().expect("cargo runs");
    assert!(
        out.status.success(),
        "quickstart exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("quickstart OK"), "unexpected quickstart output:\n{stdout}");
}

/// The parallel-search example runs to completion and prints its final
/// marker. Its own asserts check root-split minimax against `maximin`,
/// the tuned training run against the sequential engine, the cold
/// shared-cache `tuneLR` against the warm one, and transposition minimax
/// against backward induction — so this runs every parallel entry point
/// of `selc-games` and `selc-ml` end to end.
#[test]
fn parallel_search_runs_to_completion() {
    let out =
        cargo().args(["run", "-q", "--example", "parallel_search"]).output().expect("cargo runs");
    assert!(
        out.status.success(),
        "parallel_search exited nonzero:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parallel search OK"), "unexpected parallel_search output:\n{stdout}");
}
