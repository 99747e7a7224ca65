//! drvlint CLI.
//!
//! `cargo run -p drvlint -- check [--root PATH]` runs the full gate and
//! exits non-zero on any finding; `update-baseline` recomputes the
//! panic-path counts and rewrites `drvlint-baseline.toml`.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: drvlint <check|update-baseline> [--root PATH]\n\
         \n\
         check            run the determinism and panic-ratchet passes;\n\
         \x20                exit 1 on any finding\n\
         update-baseline  recompute panic-path counts and rewrite\n\
         \x20                drvlint-baseline.toml"
    );
    ExitCode::from(2)
}

fn find_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    // When run via `cargo run -p drvlint`, the manifest dir is
    // crates/drvlint; the workspace root is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let mut root: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root = find_root(root);
    match cmd.as_str() {
        "check" => match drvlint::run_check(&root) {
            Ok(report) => {
                for note in &report.notes {
                    println!("note: {note}");
                }
                if report.is_clean() {
                    println!("drvlint: workspace clean");
                    ExitCode::SUCCESS
                } else {
                    for finding in &report.findings {
                        println!("{finding}");
                    }
                    println!("drvlint: {} finding(s)", report.findings.len());
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("drvlint: {e}");
                ExitCode::FAILURE
            }
        },
        "update-baseline" => match drvlint::update_baseline(&root) {
            Ok(_) => {
                println!(
                    "drvlint: wrote {}",
                    root.join(drvlint::BASELINE_FILE).display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("drvlint: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
