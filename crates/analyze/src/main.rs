//! CLI for `srank-analyze`. Exit status 0 means a clean tree; 1 means
//! findings (printed one per line, or as JSON with `--json`); 2 means
//! usage or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("srank-analyze: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: srank-analyze [--root DIR] [--json]\n\n\
                     Static analysis gates for the stable-rankings workspace:\n\
                     lock-order, panic-path.\n\
                     Exits 1 if any finding is reported."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("srank-analyze: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match srank_analyze::analyze(&root) {
        Ok(findings) => {
            if json {
                println!("{}", srank_analyze::to_json(&findings));
            } else {
                for f in &findings {
                    println!("{f}");
                }
                if !findings.is_empty() {
                    eprintln!(
                        "srank-analyze: {} finding{}",
                        findings.len(),
                        if findings.len() == 1 { "" } else { "s" }
                    );
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("srank-analyze: {err}");
            ExitCode::from(2)
        }
    }
}
