//! `compare A.json B.json`: B against the baseline A, one row per workload
//! and end-to-end metric, judged by the bound the benchmark fixed.

use crate::report::Better;
use crate::stats::Quartiles;
use eirene_sim::telemetry::JsonValue;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Both sides' rounds agree with themselves within the bound, and B's
    /// median is no worse than A's by more than it.
    Ok,
    /// The interquartile spread of a side's rounds is wider than the bound:
    /// the cell can carry neither "unchanged" nor "regressed".
    Unresolved,
    /// Both sides are steady and B's median is worse than A's by more than
    /// the bound.
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn verdict(better: Better, bound: f64, a: &Quartiles, b: &Quartiles) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worsening(better, a.median, b.median) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

struct Cell {
    unit: String,
    better: Better,
    bound: f64,
    quartiles: Quartiles,
}

fn cell(v: &JsonValue) -> Option<Cell> {
    let num = |key: &str| v.get(key).and_then(JsonValue::as_f64);
    Some(Cell {
        unit: v.get("unit")?.as_str()?.to_string(),
        better: Better::parse(v.get("better")?.as_str()?)?,
        bound: num("bound")?,
        quartiles: Quartiles {
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
        },
    })
}

fn workloads(doc: &JsonValue) -> Result<Vec<(String, &JsonValue)>, String> {
    doc.get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("no `workloads` array")?
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("workload without a name")?;
            let cells = w.get("end_to_end").ok_or("workload without `end_to_end`")?;
            Ok((name.to_string(), cells))
        })
        .collect()
}

/// Compares two reports, returns the printed table and the verdict of every
/// cell. A workload or metric present in A but not in B is an error: a
/// comparison that silently drops a row is not a comparison.
pub fn compare(a: &JsonValue, b: &JsonValue) -> Result<(String, Vec<Verdict>), String> {
    let mut table = format!(
        "{:<16} {:<22} {:>12} {:>24} {:>12} {:>24} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "bound"
    );
    let mut verdicts = Vec::new();
    let in_b = workloads(b).map_err(|e| format!("B: {e}"))?;
    for (name, cells_a) in workloads(a).map_err(|e| format!("A: {e}"))? {
        let (_, cells_b) = in_b
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or(format!("workload {name} is in A but not in B"))?;
        let JsonValue::Obj(metrics) = cells_a else {
            return Err(format!("A: `end_to_end` of {name} is not an object"));
        };
        for (metric, va) in metrics {
            let ca = cell(va).ok_or(format!("A: malformed cell {name}/{metric}"))?;
            let cb = cells_b
                .get(metric)
                .and_then(cell)
                .ok_or(format!("B: missing or malformed cell {name}/{metric}"))?;
            let v = verdict(ca.better, ca.bound, &ca.quartiles, &cb.quartiles);
            let (qa, qb) = (ca.quartiles, cb.quartiles);
            table.push_str(&format!(
                "{:<16} {:<22} {:>12.4} {:>24} {:>12.4} {:>24} {:>9.4} {:>6.2}  {} ({}, {} is better)\n",
                name,
                metric,
                qa.median,
                format!("[{:.4}, {:.4}]", qa.q1, qa.q3),
                qb.median,
                format!("[{:.4}, {:.4}]", qb.q1, qb.q3),
                qb.median / qa.median,
                ca.bound,
                v.name(),
                ca.unit,
                ca.better.name(),
            ));
            verdicts.push(v);
        }
    }
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    table.push_str(&format!(
        "{} ok, {} unresolved, {} regressed; ratios are B over A (base A)\n",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    ));
    Ok((table, verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(q1: f64, median: f64, q3: f64) -> Quartiles {
        Quartiles { q1, median, q3 }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let tight = q(99.0, 100.0, 101.0);
        // Lower is better: +11 % is a regression at a 10 % bound, +9 % is not.
        assert_eq!(
            verdict(Better::Lower, 0.10, &tight, &q(110.0, 111.0, 112.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &tight, &q(108.0, 109.0, 110.0)),
            Verdict::Ok
        );
        // Higher is better: the same movement reads the other way.
        assert_eq!(
            verdict(Better::Higher, 0.10, &tight, &q(110.0, 111.0, 112.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &tight, &q(88.0, 89.0, 90.0)),
            Verdict::Regressed
        );
        // A side noisier than the bound supports no verdict: not "unchanged"
        assert_eq!(
            verdict(Better::Lower, 0.10, &tight, &q(90.0, 100.0, 115.0)),
            Verdict::Unresolved
        );
        // ... and not "regressed" either, however far its median moved.
        assert_eq!(
            verdict(Better::Lower, 0.10, &tight, &q(100.0, 130.0, 150.0)),
            Verdict::Unresolved
        );
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
    }

    fn report(tput: [f64; 3], lat: [f64; 3]) -> JsonValue {
        let cell = |unit: &str, better: &str, bound: f64, [q1, median, q3]: [f64; 3]| {
            JsonValue::obj(vec![
                ("unit", unit.into()),
                ("better", better.into()),
                ("bound", bound.into()),
                ("median", median.into()),
                ("q1", q1.into()),
                ("q3", q3.into()),
            ])
        };
        JsonValue::obj(vec![(
            "workloads",
            JsonValue::Arr(vec![JsonValue::obj(vec![
                ("name", "serve_bulk".into()),
                (
                    "end_to_end",
                    JsonValue::obj(vec![
                        ("host_tput_kreq_s", cell("kreq/s", "higher", 0.10, tput)),
                        ("host_lat_p50_ms", cell("ms", "lower", 0.10, lat)),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_marks_each_cell_and_reports_ratios_with_their_base() {
        let a = report([460.0, 470.0, 480.0], [4.1, 4.2, 4.3]);
        let same = report([455.0, 465.0, 475.0], [4.15, 4.25, 4.35]);
        let (table, verdicts) = compare(&a, &same).unwrap();
        assert_eq!(verdicts, [Verdict::Ok, Verdict::Ok]);
        assert!(
            table.contains("B over A (base A)") && table.contains("serve_bulk"),
            "{table}"
        );

        let slower = report([400.0, 410.0, 420.0], [4.8, 4.9, 5.0]);
        let (table, verdicts) = compare(&a, &slower).unwrap();
        assert_eq!(verdicts, [Verdict::Regressed, Verdict::Regressed]);
        assert!(table.contains("0 ok, 0 unresolved, 2 regressed"), "{table}");

        let noisy = report([380.0, 470.0, 520.0], [4.1, 4.2, 4.3]);
        assert_eq!(
            compare(&a, &noisy).unwrap().1,
            [Verdict::Unresolved, Verdict::Ok]
        );

        let missing = JsonValue::obj(vec![("workloads", JsonValue::Arr(vec![]))]);
        assert!(compare(&a, &missing).unwrap_err().contains("not in B"));
    }
}
