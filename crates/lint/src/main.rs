//! CLI for the workspace analyzer.
//!
//! ```text
//! cargo run -p nifdy-lint [-- --root <dir>] [--json <path>] [--closure-json <path>] [--quiet]
//! ```
//!
//! Exit status: 0 clean, 1 violations, 2 broken allowlist / I/O errors.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use nifdy_lint::{report, run, LintConfig};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut closure_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_out = args.next().map(PathBuf::from),
            "--closure-json" => closure_out = args.next().map(PathBuf::from),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "nifdy-lint: workspace static analysis (R1 panic-freedom, R4 config coverage,\n\
                     R5 zero-alloc, R6 bounded capacity, R9 lock discipline)\n\n\
                     USAGE: nifdy-lint [--root <dir>] [--json <path>] [--closure-json <path>] [--quiet]\n\n\
                     Exit 0 = clean, 1 = violations, 2 = allowlist/I-O errors."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("nifdy-lint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        // Default to the workspace root: the manifest dir of this crate is
        // `<root>/crates/lint` at build time; at run time prefer the CWD if
        // it holds a `crates/` directory (so the binary also works from a
        // checkout root without cargo).
        let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });

    let config = match LintConfig::workspace(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("nifdy-lint: cannot enumerate workspace crates: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&config);

    if let Some(path) = json_out {
        if let Err(e) = fs::write(&path, report::to_json(&result)) {
            eprintln!("nifdy-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = closure_out {
        if let Err(e) = fs::write(&path, &result.closure_json) {
            eprintln!("nifdy-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !quiet {
        print!("{}", report::human(&result));
    }
    if !result.errors.is_empty() {
        ExitCode::from(2)
    } else if result.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
