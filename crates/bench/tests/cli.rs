//! The flag tables are the only CLI vocabulary of `eirene-bench`: every
//! `serve` and figure line parses back into the settings that printed it,
//! a preset means the same wherever it stands, a bad line is a usage error
//! (exit 2) rather than the end of the process, and every command line
//! the docs and CI show still parses.

use eirene_bench::figures::{self, FigureRun};
use eirene_bench::serve::{self, Preset, ServeScale};
use eirene_bench::Scale;
use eirene_check::cli::{self, Cli};
use eirene_check::Fuzz;
use std::path::Path;

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// Parses an `eirene-bench` line without its program name.
fn parse(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("fuzz") => Fuzz::parse(&args[1..]).map(drop),
        Some("serve") => cli::parse::<ServeScale>(&args[1..]).map(drop),
        _ => figures::parse(args).map(drop),
    }
}

/// Every flag-settable `serve` field off the preset's default.
fn serve_off_default(preset: Preset) -> ServeScale {
    let d = ServeScale::defaults(preset);
    ServeScale {
        shards: vec![3, 5],
        loads: vec![0.25],
        thetas: vec![0.7, 1.1],
        tree_exp: d.tree_exp + 1,
        requests: d.requests + 1,
        batch_limit: d.batch_limit + 1,
        straddle: 0.125,
        clients: d.clients + 1,
        seed: 99,
        tenants: 3,
        quota: 7,
        hog_factor: d.hog_factor + 1,
        theta: Some(0.99),
        monitor: true,
        monitor_out: Some("mon.json".into()),
        spans_out: Some("spans.jsonl".into()),
        slo_p99_us: Some(50.0),
        slo_shed_rate: Some(0.05),
        ..d
    }
}

#[test]
fn serve_lines_round_trip_in_every_preset() {
    for &preset in ServeScale::MODES {
        for scale in [ServeScale::defaults(preset), serve_off_default(preset)] {
            let line = cli::command(&scale);
            let parsed = cli::parse::<ServeScale>(&args(&line)[2..]);
            assert_eq!(parsed, Ok(scale), "{line}");
        }
    }
}

#[test]
fn figure_lines_round_trip_in_every_preset() {
    for &preset in FigureRun::MODES {
        let d = FigureRun::defaults(preset);
        let run = FigureRun {
            name: Some("ablate-mix"),
            scale: Scale {
                tree_exps: vec![12, 9],
                default_exp: 12,
                batch_size: d.scale.batch_size + 1,
                repeats: d.scale.repeats + 1,
            },
            jobs: Some(3),
            json: Some("out.json".into()),
            trace: Some("trace.json".into()),
            ..d
        };
        let line = cli::command(&run);
        assert_eq!(figures::parse(&args(&line)[1..]), Ok(run), "{line}");
    }
}

#[test]
fn a_preset_means_the_same_wherever_it_stands() {
    let serve = |line: &str| cli::parse::<ServeScale>(&args(line));
    let late = serve("--tree-exp 12 --smoke").unwrap();
    assert_eq!(serve("--smoke --tree-exp 12"), Ok(late.clone()));
    assert_eq!((late.preset, late.tree_exp), (Preset::Smoke, 12));
    let late = figures::parse(&args("fig2 --batch 65536 --smoke")).unwrap();
    assert_eq!(
        figures::parse(&args("fig2 --smoke --batch 65536")),
        Ok(late.clone())
    );
    assert_eq!(late.scale.batch_size, 65536);
    assert!(serve("--smoke --paper-scale").is_err());
    assert!(figures::parse(&args("fig7 --paper-scale --smoke")).is_err());
}

#[test]
fn bad_serve_lines_return_2_instead_of_exiting() {
    for line in [
        "--shards x",
        "--no-such-flag",
        "--smoke --skew-sweep",
        "--seed",
    ] {
        assert_eq!(serve::run(&args(line)), 2, "{line}");
    }
    assert_eq!(eirene_bench::run(&args("fig99")), 2);
    assert_eq!(eirene_bench::run(&[]), 2);
    let usage = eirene_bench::usage();
    for flag in ["--skew-sweep", "--slo-shed-rate", "--repro-seed", "--exps"] {
        assert!(usage.contains(flag), "{flag} missing from:\n{usage}");
    }
}

/// The `eirene-bench` command lines of one doc line: after the binary
/// (and cargo's `--release --`), up to a comment or shell syntax. Lines
/// with placeholders (`<…>`, `…`, `...`, `$replay`) are skipped.
fn commands_in(line: &str) -> Vec<Vec<String>> {
    let mut found = Vec::new();
    let tokens: Vec<&str> = line.split_whitespace().collect();
    for (i, _) in tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.rsplit(['/', '(']).next() == Some("eirene-bench"))
    {
        let mut rest: Vec<&str> = tokens[i + 1..].to_vec();
        if rest.first() == Some(&"--release") {
            rest.remove(0);
        }
        if rest.first() == Some(&"--") {
            rest.remove(0);
        }
        let mut cmd = Vec::new();
        for token in rest {
            let token = token.trim_end_matches(')');
            if token.starts_with('#') || token.contains(['\'', '"', '|', ';', '&', '>']) {
                break;
            }
            cmd.push(token.to_string());
        }
        let placeholder = |t: &String| t.contains(['<', '…', '$']) || t.contains("...");
        if cmd.first().is_some_and(|c| !c.starts_with('-')) && !cmd.iter().any(placeholder) {
            found.push(cmd);
        }
    }
    found
}

#[test]
fn every_documented_command_line_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let docs = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ];
    let mut checked = 0;
    for doc in docs {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let text = text
            .replace("\\\n", " ")
            .replace("$FUZZ", "eirene-bench fuzz");
        let mut in_code = doc.ends_with(".yml");
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_code = !in_code;
                continue;
            }
            // Code lines are commands; prose names them in backticks.
            let spans: Vec<&str> = if in_code {
                vec![line]
            } else {
                line.split('`').skip(1).step_by(2).collect()
            };
            for cmd in spans.into_iter().flat_map(commands_in) {
                assert_eq!(parse(&cmd), Ok(()), "{doc}:{}: {}", n + 1, cmd.join(" "));
                checked += 1;
            }
        }
    }
    assert!(checked >= 40, "only {checked} documented lines found");
}
