//! Smoke run of every ablation through the `--json` export: `ablate::all`
//! at a tiny scale must record exactly one result table per ablation.
//! Its own test binary, because the CSV directory is resolved once per
//! process from `EIRENE_RESULTS_DIR`.

use eirene_bench::{ablate, metrics, Scale};
use eirene_telemetry::JsonValue;

#[test]
fn every_ablation_exports_one_table() {
    let dir = std::env::temp_dir().join(format!("eirene-bench-ablate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("EIRENE_RESULTS_DIR", &dir);
    let path = dir.join("ablate.json");
    metrics::enable_json(path.to_str().unwrap());

    let scale = Scale {
        tree_exps: vec![8],
        default_exp: 8,
        batch_size: 256,
        repeats: 1,
    };
    ablate::all(&scale);
    metrics::flush();

    let text = std::fs::read_to_string(&path).expect("exported file exists");
    let doc = JsonValue::parse(&text).expect("exported file is valid JSON");
    let mut names: Vec<&str> = doc
        .get("tables")
        .and_then(|v| v.as_arr())
        .expect("tables array")
        .iter()
        .filter_map(|t| t.get("name").and_then(|v| v.as_str()))
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "ablate_batch",
            "ablate_distribution",
            "ablate_iteration",
            "ablate_mix",
            "ablate_threshold",
        ]
    );
    for name in &names {
        assert!(dir.join(format!("{name}.csv")).exists(), "{name}.csv");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
