//! Command-line entry point for the workspace linter.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
udm-lint: workspace invariant linter (rules UDM002, UDM003, UDM005-UDM009)

USAGE:
  udm-lint check [--root PATH] [--stats] [--format text|json|sarif]
  udm-lint parse [--root PATH]
  udm-lint help

check exits 0 when no unwaived diagnostics and no unused waivers
  remain, 1 otherwise, and 2 when a file cannot be read or does not
  parse.
  --format json|sarif writes the machine-readable report to stdout
    (diagnostics still gate the exit code).
parse is a parser robustness smoke: parses every .rs file under the
  root (including vendored code) and reports the files that do not
  parse; exits 0 unless a file cannot be read.
";

struct Args {
    command: String,
    root: PathBuf,
    stats: bool,
    format: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().unwrap_or_else(|| "help".into()),
        root: PathBuf::from("."),
        stats: false,
        format: "text".into(),
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--root" => {
                i += 1;
                args.root = PathBuf::from(
                    argv.get(i)
                        .ok_or_else(|| "--root needs a path".to_string())?,
                );
            }
            "--stats" => args.stats = true,
            "--format" => {
                i += 1;
                let f = argv
                    .get(i)
                    .ok_or_else(|| "--format needs text|json|sarif".to_string())?;
                if !["text", "json", "sarif"].contains(&f.as_str()) {
                    return Err(format!("--format must be text|json|sarif, got {f:?}"));
                }
                args.format = f.clone();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "check" => run_check(&args),
        "parse" => run_parse(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_check(args: &Args) -> ExitCode {
    let report = match udm_lint::check(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match args.format.as_str() {
        "json" => print!("{}", udm_lint::output::render_json(&report)),
        "sarif" => print!("{}", udm_lint::output::render_sarif(&report)),
        _ => {
            for d in &report.diagnostics {
                println!("{}:{}: {} {}", d.path, d.line, d.rule, d.message);
            }
            if args.stats {
                println!("--- stats ---");
                println!("files scanned: {}", report.files_scanned);
                for (rule, (hits, waived)) in &report.per_rule {
                    println!(
                        "{rule}: {hits} hit(s), {waived} waived, {} reported",
                        hits - waived
                    );
                }
                println!("total waived: {}", report.waived);
            }
        }
    }
    // Health signals always go to stderr so they survive --format json.
    for w in &report.unused_inline_waivers {
        eprintln!("udm-lint: unused inline waiver: {w}");
    }
    let mut failed = false;
    if !report.diagnostics.is_empty() {
        eprintln!(
            "udm-lint: {} unwaived diagnostic(s)",
            report.diagnostics.len()
        );
        failed = true;
    }
    if !report.unused_inline_waivers.is_empty() {
        eprintln!(
            "udm-lint: {} unused waiver(s); delete stale allows",
            report.unused_inline_waivers.len()
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        if args.format == "text" && !args.stats {
            println!(
                "udm-lint: clean ({} files, {} waived)",
                report.files_scanned, report.waived
            );
        }
        ExitCode::SUCCESS
    }
}

fn run_parse(args: &Args) -> ExitCode {
    match udm_lint::engine::parse_smoke(&args.root) {
        Ok((ok, unparsed)) => {
            for f in &unparsed {
                println!("unparsed: {f}");
            }
            println!(
                "udm-lint parse: {} file(s) fully parsed, {} unparsed",
                ok,
                unparsed.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
