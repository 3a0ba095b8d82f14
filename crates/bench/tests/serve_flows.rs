//! The `serve` flows whose exit code is the check, run the way CI used to
//! run them from a shell. Both drive real services on every host thread,
//! and the QoS flow compares cells against each other, so the two tests
//! take turns instead of sharing the machine.

use eirene_serve::spans_from_jsonl;
use eirene_telemetry::JsonValue;
use std::sync::Mutex;

static ONE_FLOW_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serve(args: &[&str]) -> i32 {
    let _turn = ONE_FLOW_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    eirene_bench::serve::run(&args)
}

/// The reduced paper-scale QoS flow (same per-shard backlog depth as the
/// recorded full-scale run, EXPERIMENTS.md "Recorded baselines"). The
/// flow itself fails unless the adaptive controller stays within 5 % of
/// the best fixed batch limit's closed-loop throughput (uniform and
/// θ = 1.0), its open-loop p99 is no worse than the throughput-best fixed
/// limit's, the 10x hog is shed at its quota while no well-behaved tenant
/// sheds, and the hog moves their p99 by less than 3x.
#[test]
fn reduced_paper_scale_qos_flow_passes_every_check() {
    let rc = serve(&[
        "--paper-scale",
        "--tree-exp",
        "18",
        "--requests",
        "524288",
        "--shards",
        "4",
        "--adaptive",
        "--tenants",
        "4",
    ]);
    assert_eq!(rc, 0, "serve --paper-scale failed a check (see stderr)");
}

/// `serve --smoke --monitor` reconciles every cell's sampled series with
/// its report (exit code) and writes exports that read back: a series
/// document with samples for every cell, and one lifecycle span per line.
#[test]
fn monitored_smoke_sweep_exports_series_and_spans_that_parse_back() {
    let dir = std::env::temp_dir().join("eirene-bench-serve-flows-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (monitor, spans) = (dir.join("monitor.json"), dir.join("spans.jsonl"));
    let rc = serve(&[
        "--smoke",
        "--monitor",
        "--monitor-out",
        monitor.to_str().unwrap(),
        "--spans",
        spans.to_str().unwrap(),
    ]);
    assert_eq!(rc, 0, "serve --smoke --monitor failed (see stderr)");

    let text = std::fs::read_to_string(&monitor).expect("monitor export exists");
    let doc = JsonValue::parse(&text).expect("monitor export is valid JSON");
    assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(1));
    let cells = doc.get("cells").and_then(|v| v.as_arr()).expect("cells");
    // --smoke sweeps 1 and 4 shards, closed loop plus one open-loop load.
    assert_eq!(cells.len(), 4);
    for cell in cells {
        let samples = cell
            .get("series")
            .and_then(|s| s.get("samples"))
            .and_then(|v| v.as_arr())
            .expect("series.samples");
        assert!(
            !samples.is_empty(),
            "cell {:?} has no samples",
            cell.get("label")
        );
    }

    let text = std::fs::read_to_string(&spans).expect("span export exists");
    let parsed = spans_from_jsonl(&text).expect("span export parses back");
    assert!(!parsed.is_empty(), "no lifecycle spans exported");
    assert!(parsed.iter().all(|span| span.is_monotone()));

    let _ = std::fs::remove_dir_all(&dir);
}
