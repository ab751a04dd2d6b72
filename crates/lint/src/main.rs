//! `jcdn-lint` — CLI for the workspace determinism linter.
//!
//! ```text
//! jcdn-lint --workspace [--format text|json] [--allowlist FILE] [--threads N]
//! jcdn-lint [--all-scopes] path/to/file.rs dir/ …
//! jcdn-lint --explain D7
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use jcdn_lint::{config, report, Config};

const USAGE: &str = "\
jcdn-lint — workspace determinism linter (the rules clippy cannot express)

USAGE:
    jcdn-lint --workspace [OPTIONS]
    jcdn-lint [OPTIONS] <paths>...
    jcdn-lint --explain <rule>

OPTIONS:
    --workspace          lint every workspace source file (crates/*/{src,tests,benches},
                         src/, tests/, examples/; vendor/ and fixtures/ excluded)
    --root <dir>         workspace root (default: nearest ancestor with [workspace])
    --format <fmt>       text (default) or json
    --allowlist <file>   allowlist file (default: <root>/allowlist.toml if present)
    --threads <n>        stage-1 parse/lint fan-out on the jcdn-exec pool (default 1)
    --all-scopes         apply every rule to every file (used by the fixture corpus)
    --explain <rule>     print the rationale and fix guidance for a rule id
    -h, --help           this help
";

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    format: String,
    allowlist: Option<PathBuf>,
    threads: usize,
    all_scopes: bool,
    explain: Option<String>,
    paths: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        format: "text".to_string(),
        allowlist: None,
        threads: 1,
        all_scopes: false,
        explain: None,
        paths: Vec::new(),
    };
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg {
            "--workspace" => args.workspace = true,
            "--all-scopes" => args.all_scopes = true,
            "--root" => args.root = Some(PathBuf::from(value(&mut i)?)),
            "--format" => args.format = value(&mut i)?,
            "--allowlist" => args.allowlist = Some(PathBuf::from(value(&mut i)?)),
            "--threads" => {
                args.threads = value(&mut i)?
                    .parse::<usize>()
                    .map_err(|_| "--threads must be a positive integer".to_string())?
                    .max(1)
            }
            "--explain" => args.explain = Some(value(&mut i)?),
            "-h" | "--help" => return Err(String::new()),
            _ if arg.starts_with('-') => return Err(format!("unknown option {arg}")),
            _ => args.paths.push(PathBuf::from(arg)),
        }
        i += 1;
    }
    if args.format != "text" && args.format != "json" {
        return Err(format!(
            "--format must be text or json, got {}",
            args.format
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(rule) = &args.explain {
        let Some(text) = report::explain(rule) else {
            return Err(format!(
                "unknown rule id `{rule}` (known: {})",
                config::RULE_IDS.join(", ")
            ));
        };
        println!("{text}");
        return Ok(true);
    }

    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = match &args.root {
        // Absolutize so path-relativization (and with it the path-scoped
        // rules) works when --root is given relative to the cwd.
        Some(r) if r.is_absolute() => r.clone(),
        Some(r) => cwd.join(r),
        None => jcdn_lint::find_workspace_root(&cwd).unwrap_or_else(|| cwd.clone()),
    };

    let mut cfg = if args.all_scopes {
        Config::all_scopes()
    } else {
        Config::workspace_default()
    };
    let allowlist_path = args.allowlist.clone().or_else(|| {
        let default = root.join("allowlist.toml");
        default.is_file().then_some(default)
    });
    if let Some(path) = allowlist_path {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let parsed =
            jcdn_lint::parse_allowlist(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        cfg.extend_allow(parsed);
    }

    let findings = if args.workspace {
        jcdn_lint::lint_workspace(&root, &cfg, args.threads)?
    } else if args.paths.is_empty() {
        return Err("no paths given (did you mean --workspace?)".to_string());
    } else {
        let mut files = Vec::new();
        for p in &args.paths {
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                cwd.join(p)
            };
            if abs.is_dir() {
                collect_dir(&abs, &mut files)?;
            } else {
                files.push(abs);
            }
        }
        files.sort();
        jcdn_lint::lint_files(&root, &files, &cfg, args.threads)?
    };

    let rendered = if args.format == "json" {
        report::render_json(&findings)
    } else {
        report::render_text(&findings)
    };
    print!("{rendered}");
    Ok(findings.is_empty())
}

fn collect_dir(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in rd {
        let entry = entry.map_err(|e| format!("error listing {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_dir(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("jcdn-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("jcdn-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
