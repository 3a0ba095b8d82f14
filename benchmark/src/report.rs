//! The metric dictionary — the names every later change uses — and the
//! report built from a run's rounds: medians and quartiles across rounds for
//! end-to-end metrics, one traced value per layer metric.

use crate::check::Tally;
use crate::stats::Quartiles;
use crate::workloads::Workload;
use eirene_sim::telemetry::JsonValue;
use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// A metric a user of the system sees. `bound` is the share of the
/// baseline's median by which the metric may get worse before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer. No bound: it explains an end-to-end movement.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_tput_kreq_s", "kreq/s", Higher, 0.25),
    e2e("host_lat_p50_ms", "ms", Lower, 0.25),
    e2e("host_lat_tail_ms", "ms", Lower, 0.25),
    e2e("sim_tput_mreq_s", "Mreq/s", Higher, 0.25),
    e2e("sim_resp_p50_us", "us", Lower, 0.25),
    e2e("sim_resp_p99_us", "us", Lower, 0.25),
    e2e("sim_mem_insts_per_req", "insts/req", Lower, 0.02),
    e2e("space_nodes_per_kkey", "nodes/kkey", Lower, 0.02),
];

pub const PER_LAYER: &[PerLayer] = &[
    layer("workloads.gen_host_ns_per_req", "ns/req", Lower),
    layer("workloads.oracle_host_ns_per_req", "ns/req", Lower),
    layer("primitives.sort_host_ns_per_key", "ns/key", Lower),
    layer("primitives.sort_sim_cycles_per_key", "cycles/key", Lower),
    layer("plan.host_us_per_batch", "us/batch", Lower),
    layer("plan.host_share", "share", Lower),
    layer("plan.host_ns_per_req.b32", "ns/req", Lower),
    layer("plan.host_ns_per_req.b512", "ns/req", Lower),
    layer("plan.host_ns_per_req.b16384", "ns/req", Lower),
    layer("plan.sim_cycles_per_req", "cycles/req", Lower),
    layer("plan.issued_share", "share", Lower),
    layer("plan.artificial_per_kreq", "1/kreq", Lower),
    layer("exec.host_us_per_batch", "us/batch", Lower),
    layer(
        "exec.sim_cycles_per_req.vertical_traversal",
        "cycles/req",
        Lower,
    ),
    layer(
        "exec.sim_cycles_per_req.horizontal_traversal",
        "cycles/req",
        Lower,
    ),
    layer("exec.sim_cycles_per_req.leaf_op", "cycles/req", Lower),
    layer("exec.sim_cycles_per_req.structure_mod", "cycles/req", Lower),
    layer("exec.sim_cycles_per_req.lock_acquire", "cycles/req", Lower),
    layer("exec.sim_cycles_per_req.stm_access", "cycles/req", Lower),
    layer("exec.sim_cycles_per_req.stm_commit", "cycles/req", Lower),
    layer("exec.sim_cycles_per_req.run_dispatch", "cycles/req", Lower),
    layer("exec.sim_cycles_per_req.result_calc", "cycles/req", Lower),
    layer("exec.sim_cycles_per_req.other", "cycles/req", Lower),
    layer(
        "exec.sim_mem_insts_per_req.vertical_traversal",
        "insts/req",
        Lower,
    ),
    layer(
        "exec.sim_mem_insts_per_req.horizontal_traversal",
        "insts/req",
        Lower,
    ),
    layer("exec.sim_mem_insts_per_req.leaf_op", "insts/req", Lower),
    layer("exec.vertical_steps_per_req", "steps/req", Lower),
    layer("exec.horizontal_steps_per_req", "steps/req", Lower),
    layer("exec.makespan_imbalance", "ratio", Lower),
    layer("exec.resp_variance", "ratio", Lower),
    layer("pivot.hits_per_kreq", "1/kreq", Higher),
    layer("pivot.descents_saved_per_req", "1/req", Higher),
    layer("pivot.rebuilds_per_batch", "1/batch", Lower),
    layer("pivot.build_host_us", "us", Lower),
    layer("pivot.lookup_host_ns", "ns", Lower),
    layer("stm.aborts_per_kreq", "1/kreq", Lower),
    layer("stm.version_conflicts_per_kreq", "1/kreq", Lower),
    layer("btree.bulk_build_host_ms", "ms", Lower),
    layer("btree.validate_host_ms", "ms", Lower),
    layer("btree.get_host_ns", "ns", Lower),
    layer("btree.height", "levels", Lower),
    layer("btree.keys_per_leaf", "keys/leaf", Higher),
    layer("sim.launch_host_us.w1", "us", Lower),
    layer("sim.launch_host_us.w512", "us", Lower),
    layer("sim.host_ns_per_sim_cycle", "ns/cycle", Lower),
    layer("sim.sys_cpu_share", "share", Lower),
    layer("sim.ctx_switches_per_kreq", "1/kreq", Lower),
    layer("sim.control_insts_per_req", "insts/req", Lower),
    layer("sim.atomic_insts_per_req", "insts/req", Lower),
    layer("sim.slab_reused_per_kreq", "1/kreq", Higher),
    layer("sim.slab_bump_allocs_per_kreq", "1/kreq", Lower),
    layer("sim.arena_retired_end", "nodes", Lower),
    layer("serve.submit_host_us_per_window", "us/window", Lower),
    layer("serve.wait_host_ms_p50", "ms", Lower),
    layer("serve.epochs_per_kreq", "1/kreq", Lower),
    layer("serve.batch_mean", "req/epoch", Higher),
    layer("serve.enqueue_amplification", "ratio", Lower),
    layer("serve.shard_imbalance", "ratio", Lower),
    layer("serve.max_queue_depth", "count", Lower),
    layer("serve.sim_queue_wait_cycles_per_req", "cycles/req", Lower),
    layer("serve.sim_ingress_cycles_per_req", "cycles/req", Lower),
    layer("serve.service_new_host_ms", "ms", Lower),
    layer("serve.shutdown_host_ms", "ms", Lower),
    layer("serve.shed_share", "share", Lower),
    layer("serve.timed_out_share", "share", Lower),
    layer("serve.reorder_pending_max", "count", Lower),
    layer("serve.watermark_lag_max", "count", Lower),
    layer("serve.inflight_max", "count", Lower),
    layer("baselines.sim_tput_ratio.lock", "ratio", Higher),
    layer("baselines.sim_tput_ratio.stm", "ratio", Higher),
    layer("baselines.mem_insts_ratio.lock", "ratio", Lower),
    layer("baselines.mem_insts_ratio.stm", "ratio", Lower),
    layer("telemetry.trace_overhead_share", "share", Lower),
    layer("telemetry.span_coverage_share", "share", Higher),
    layer("host.cpu_us_per_req", "us/req", Lower),
    layer("host.peak_rss_mb", "MB", Lower),
];

/// One workload's results: every untraced round's end-to-end values, and
/// the traced round's per-layer values (empty when tracing was off).
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub tally: Tally,
    /// `rounds[r][i]` is the value of `END_TO_END[i]` in untraced round `r`.
    pub rounds: Vec<Vec<f64>>,
    /// Rounds run again because the hypervisor stole CPU time during them.
    pub rounds_dropped: usize,
    /// Indexed like `PER_LAYER`; a metric a workload does not exercise is 0.
    pub per_layer: Vec<f64>,
}

/// Lines up a round's named end-to-end values with `END_TO_END`.
pub fn end_to_end_row(values: &[(&'static str, f64)]) -> Vec<f64> {
    assert_eq!(
        values.len(),
        END_TO_END.len(),
        "a round reports every end-to-end metric once"
    );
    END_TO_END
        .iter()
        .map(|m| {
            let (_, v) = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("round did not report {}", m.name));
            *v
        })
        .collect()
}

/// Lines up named per-layer values with `PER_LAYER`. A name outside the
/// dictionary is a bug in the benchmark, not a new metric.
pub fn per_layer_row(values: &[(String, f64)]) -> Vec<f64> {
    for (i, (name, _)) in values.iter().enumerate() {
        assert!(
            values[..i].iter().all(|(earlier, _)| earlier != name),
            "{name} is reported twice"
        );
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer dictionary"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(name, _)| name == m.name)
                .map_or(0.0, |(_, v)| *v)
        })
        .collect()
}

impl WorkloadResult {
    pub fn quartiles(&self, metric: usize) -> Quartiles {
        let values: Vec<f64> = self.rounds.iter().map(|r| r[metric]).collect();
        Quartiles::of(&values)
    }

    fn to_json(&self) -> JsonValue {
        let end_to_end = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let q = self.quartiles(i);
                let cell = JsonValue::obj(vec![
                    ("unit", m.unit.into()),
                    ("better", m.better.name().into()),
                    ("bound", m.bound.into()),
                    ("median", q.median.into()),
                    ("q1", q.q1.into()),
                    ("q3", q.q3.into()),
                    ("spread", q.spread().into()),
                    (
                        "values",
                        JsonValue::Arr(self.rounds.iter().map(|r| r[i].into()).collect()),
                    ),
                ]);
                (m.name.to_string(), cell)
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .zip(&self.per_layer)
            .map(|(m, &v)| {
                let cell = JsonValue::obj(vec![
                    ("unit", m.unit.into()),
                    ("better", m.better.name().into()),
                    ("value", v.into()),
                ]);
                (m.name.to_string(), cell)
            })
            .collect();
        JsonValue::obj(vec![
            ("name", self.workload.name.into()),
            ("why", self.workload.why.into()),
            ("rounds", self.rounds.len().into()),
            ("rounds_dropped", self.rounds_dropped.into()),
            (
                "latency_samples_per_round",
                self.workload.latency_samples().into(),
            ),
            (
                "tail_percentile",
                (self.workload.tail_quantile() * 100.0).into(),
            ),
            ("attempted", self.tally.attempted.into()),
            ("failed", self.tally.failed.into()),
            ("failed_share", self.tally.failed_share().into()),
            ("end_to_end", JsonValue::Obj(end_to_end)),
            ("per_layer", JsonValue::Obj(per_layer)),
        ])
    }

    /// The acceptance driver's result line: end-to-end medians of an
    /// untraced run, per-layer values of a traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let cell = |value: f64, unit: &str| {
            JsonValue::obj(vec![("value", value.into()), ("unit", unit.into())])
        };
        let metrics = if traced {
            PER_LAYER
                .iter()
                .zip(&self.per_layer)
                .map(|(m, &v)| (m.name.to_string(), cell(v, m.unit)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name.to_string(), cell(self.quartiles(i).median, m.unit)))
                .collect()
        };
        JsonValue::obj(vec![
            ("correct", (self.tally.failed == 0).into()),
            ("attempted", self.tally.attempted.into()),
            ("failed", self.tally.failed.into()),
            ("metrics", JsonValue::Obj(metrics)),
        ])
        .to_json()
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        println!(
            "\n== {} — {} untraced round(s) ({} dropped), {} attempted, {} failed (failed_share {})",
            self.workload.name,
            self.rounds.len(),
            self.rounds_dropped,
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_share()
        );
        println!(
            "{:<48} {:>14} {:>14} {:>14}  {:<10} spread / bound",
            "end-to-end", "median", "q1", "q3", "unit"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let q = self.quartiles(i);
            println!(
                "{:<48} {:>14.4} {:>14.4} {:>14.4}  {:<10} {:.3} / {:.2} ({} is better)",
                m.name,
                q.median,
                q.q1,
                q.q3,
                m.unit,
                q.spread(),
                m.bound,
                m.better.name()
            );
        }
        if self.per_layer.is_empty() {
            return;
        }
        println!(
            "{:<48} {:>14}  unit (traced round and isolation cells)",
            "per-layer", "value"
        );
        for (m, v) in PER_LAYER.iter().zip(&self.per_layer) {
            println!("{:<48} {:>14.4}  {}", m.name, v, m.unit);
        }
    }
}

/// The whole run as one JSON document (`schema` 1), the input of `compare`.
pub fn to_json(env: JsonValue, results: &[WorkloadResult]) -> JsonValue {
    JsonValue::obj(vec![
        ("schema", 1u64.into()),
        ("env", env),
        (
            "workloads",
            JsonValue::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn result() -> WorkloadResult {
        let row = |x: f64| {
            END_TO_END
                .iter()
                .enumerate()
                .map(|(i, _)| x + i as f64)
                .collect::<Vec<f64>>()
        };
        WorkloadResult {
            workload: Workload::by_name("tree_read").expect("a workload"),
            tally: Tally {
                attempted: 1000,
                failed: 0,
            },
            rounds: vec![row(1.5), row(3.5), row(2.5)],
            rounds_dropped: 0,
            per_layer: per_layer_row(&[("plan.host_share".to_string(), 0.25)]),
        }
    }

    #[test]
    fn report_json_carries_medians_quartiles_and_values() {
        let doc = to_json(JsonValue::obj(vec![("seed", 7u64.into())]), &[result()]);
        let parsed = JsonValue::parse(&doc.to_json_pretty()).unwrap();
        assert_eq!(parsed, doc);
        let w = &parsed.get("workloads").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(w.get("name").and_then(JsonValue::as_str), Some("tree_read"));
        assert_eq!(w.get("failed_share").and_then(JsonValue::as_f64), Some(0.0));
        let tput = w
            .get("end_to_end")
            .and_then(|e| e.get("host_tput_kreq_s"))
            .unwrap();
        assert_eq!(tput.get("median").and_then(JsonValue::as_f64), Some(3.5));
        assert_eq!(
            tput.get("better").and_then(JsonValue::as_str),
            Some("higher")
        );
        assert_eq!(
            tput.get("values")
                .and_then(JsonValue::as_arr)
                .unwrap()
                .len(),
            3
        );
        let share = w
            .get("per_layer")
            .and_then(|p| p.get("plan.host_share"))
            .unwrap();
        assert_eq!(share.get("value").and_then(JsonValue::as_f64), Some(0.25));
    }

    #[test]
    fn contract_line_has_exactly_the_required_keys() {
        let r = result();
        for (traced, count) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = r.contract_line(traced);
            assert!(!line.contains('\n'));
            let JsonValue::Obj(fields) = JsonValue::parse(&line).unwrap() else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let JsonValue::Obj(metrics) = &fields[3].1 else {
                panic!("metrics is not an object")
            };
            assert_eq!(metrics.len(), count);
            for (_, cell) in metrics {
                assert!(cell.get("value").and_then(JsonValue::as_f64).is_some());
                assert!(cell.get("unit").and_then(JsonValue::as_str).is_some());
            }
        }
        let setup = JsonValue::parse(&r.contract_line(false)).unwrap();
        let setup = setup
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap()
            .clone();
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "not in the per-layer dictionary")]
    fn a_misspelt_layer_metric_is_refused() {
        per_layer_row(&[("plan.host_shaer".to_string(), 0.0)]);
    }

    /// `BENCHMARK.json` at the repository root is written by hand to the
    /// acceptance driver's schema; this keeps it equal to the dictionary.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(JsonValue::as_arr).unwrap().to_vec();
        let text =
            |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(JsonValue::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, want);
        assert_eq!(
            doc.get("paths").and_then(JsonValue::as_arr).unwrap(),
            [JsonValue::from("benchmark")]
        );
    }
}
