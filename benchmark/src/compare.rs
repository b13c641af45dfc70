//! `compare A.json B.json`: judge result file B against A, one row per
//! end-to-end metric and workload.
//!
//! A host metric is `worse` when B's value is worse than A's by more than
//! the metric's bound, and `unresolved` when the spread of either file's
//! own samples (interquartile range over median) exceeds the bound, unless
//! every sample of B beats every sample of A. A simulated metric repeats
//! exactly for one seed, so any difference is reported: `worse` beyond the
//! bound, `differs` within it. `sim_digest` gets a row of its own.
//!
//! Exit code: 0 when every row is `ok`, 1 on any `worse`, 2 when nothing
//! is worse but something is `unresolved` or `differs`.

use crate::schema::{Better, EndToEnd, Kind, END_TO_END, PER_LAYER, SCHEMA, WORKLOADS};
use crate::stats::iqr_over_median;
use std::path::Path;
use std::process::ExitCode;
use vfpga_repro::fsim::json::Json;

fn num(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::Num(x) => Some(*x),
        Json::UInt(x) => Some(*x as f64),
        Json::Int(x) => Some(*x as f64),
        _ => None,
    }
}

fn text(j: Option<&Json>) -> Option<&str> {
    match j? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// Check a result file against the schema; returns what is wrong with it.
pub fn validate(result: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    if text(result.get("schema")) != Some(SCHEMA) {
        bad.push(format!("schema is not '{SCHEMA}'"));
    }
    for key in ["seed", "nproc", "run_seconds", "min_reps"] {
        if num(result.get(key)).is_none() {
            bad.push(format!("'{key}' is missing or not a number"));
        }
    }
    let Some(workloads) = result.get("workloads") else {
        bad.push("'workloads' is missing".into());
        return bad;
    };
    for w in WORKLOADS {
        let Some(entry) = workloads.get(w) else {
            bad.push(format!("workload '{w}' is missing"));
            continue;
        };
        if !matches!(entry.get("correct"), Some(Json::Bool(_))) {
            bad.push(format!("{w}: 'correct' is not a boolean"));
        }
        if num(entry.get("attempted")).map_or(true, |n| n < 1.0) {
            bad.push(format!("{w}: 'attempted' is not a count of at least 1"));
        }
        if text(entry.get("sim_digest")).is_none() {
            bad.push(format!("{w}: 'sim_digest' is missing"));
        }
        let tables = [
            (
                "end_to_end",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                "per_layer",
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
            ),
        ];
        for (section, want) in tables {
            let Some(Json::Obj(got)) = entry.get(section) else {
                bad.push(format!("{w}: '{section}' is missing"));
                continue;
            };
            for (name, _) in got {
                if !crate::schema::valid_name(name) {
                    bad.push(format!(
                        "{w}: metric name '{name}' is outside [A-Za-z0-9_.-]"
                    ));
                }
                if !want.iter().any(|(n, _)| n == name) {
                    bad.push(format!("{w}: {section} has an unknown metric '{name}'"));
                }
            }
            for (name, unit) in want {
                let m = entry.get(section).and_then(|s| s.get(name));
                match num(m.and_then(|m| m.get("value"))) {
                    Some(v) if v.is_finite() => {}
                    _ => bad.push(format!("{w}: {section} metric '{name}' has no value")),
                }
                match text(m.and_then(|m| m.get("unit"))) {
                    Some(u) if u == unit && crate::schema::valid_unit(u) => {}
                    other => bad.push(format!("{w}: '{name}' has unit {other:?}, not '{unit}'")),
                }
            }
        }
    }
    bad
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Differs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// Judge one metric. `sa` and `sb` are the samples behind the two medians
/// (empty when the metric is a single reading).
pub fn judge(m: &EndToEnd, a: f64, b: f64, sa: &[f64], sb: &[f64]) -> Verdict {
    let worse = worsening(m, a, b) > m.bound;
    match m.kind {
        Kind::Exact if worse => Verdict::Worse,
        Kind::Exact if a != b => Verdict::Differs,
        Kind::Exact => Verdict::Ok,
        Kind::Host => {
            let spread = [sa, sb]
                .iter()
                .filter(|s| s.len() >= 2)
                .map(|s| iqr_over_median(s))
                .fold(0.0, f64::max);
            if spread > m.bound {
                let all_better = !sa.is_empty()
                    && !sb.is_empty()
                    && sa
                        .iter()
                        .all(|&x| sb.iter().all(|&y| worsening(m, x, y) < 0.0));
                if all_better {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                }
            } else if worse {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
    }
}

fn samples(metric: Option<&Json>) -> Vec<f64> {
    metric
        .and_then(|m| m.get("samples"))
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(|x| num(Some(x))).collect())
        .unwrap_or_default()
}

/// Read and parse a JSON file.
pub fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path:?}: {e:?}"))
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let load = |p: &str| -> Result<Json, String> {
        let json = load_json(Path::new(p))?;
        match validate(&json).as_slice() {
            [] => Ok(json),
            bad => Err(format!("{p}: {}", bad.join("; "))),
        }
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if num(a.get("seed")) != num(b.get("seed")) || text(a.get("sizes")) != text(b.get("sizes")) {
        eprintln!("the two files were measured with different seeds or sizes");
        return ExitCode::from(2);
    }
    println!(
        "{:<8} {:<22} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut verdicts = Vec::new();
    for w in WORKLOADS {
        let entry = |r: &Json| r.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (ea, eb) = (entry(&a).expect("validated"), entry(&b).expect("validated"));
        for m in &END_TO_END {
            let metric = |e: &Json| e.get("end_to_end").and_then(|s| s.get(m.name)).cloned();
            let (ma, mb) = (metric(&ea), metric(&eb));
            let va = num(ma.as_ref().and_then(|m| m.get("value"))).expect("validated");
            let vb = num(mb.as_ref().and_then(|m| m.get("value"))).expect("validated");
            let v = judge(m, va, vb, &samples(ma.as_ref()), &samples(mb.as_ref()));
            println!(
                "{w:<8} {:<22} {va:>16.6} {vb:>16.6} {:>9.4} {:>5.1}%  {}",
                m.name,
                vb / va,
                m.bound * 100.0,
                v.as_str()
            );
            verdicts.push(v);
        }
        let (da, db) = (text(ea.get("sim_digest")), text(eb.get("sim_digest")));
        let v = if da == db {
            Verdict::Ok
        } else {
            Verdict::Differs
        };
        println!(
            "{w:<8} {:<22} {:>16} {:>16} {:>9} {:>6}  {}",
            "sim_digest",
            da.unwrap_or("-").trim_start_matches("0x"),
            db.unwrap_or("-").trim_start_matches("0x"),
            "",
            "exact",
            v.as_str()
        );
        verdicts.push(v);
    }
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    println!(
        "{} ok, {} worse, {} unresolved, {} differ",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Differs)
    );
    if count(Verdict::Worse) > 0 {
        ExitCode::from(1)
    } else if count(Verdict::Ok) < verdicts.len() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn host_metric_verdicts() {
        let m = metric("items_per_s"); // higher is better, bound 25%
        let tight = |c: f64| vec![c * 0.99, c, c * 1.01, c * 1.005, c * 0.995];
        assert_eq!(
            judge(m, 100.0, 95.0, &tight(100.0), &tight(95.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(m, 100.0, 70.0, &tight(100.0), &tight(70.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(m, 100.0, 130.0, &tight(100.0), &tight(130.0)),
            Verdict::Ok
        );
        // A spread wider than the bound decides nothing ...
        let wide = vec![50.0, 75.0, 100.0, 125.0, 150.0];
        assert_eq!(
            judge(m, 100.0, 95.0, &wide, &tight(95.0)),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(m, 100.0, 300.0, &wide, &tight(300.0)), Verdict::Ok);
    }

    #[test]
    fn exact_metric_verdicts() {
        let m = metric("sim_makespan_s"); // lower is better, bound 15%
        assert_eq!(judge(m, 10.0, 10.0, &[], &[]), Verdict::Ok);
        assert_eq!(judge(m, 10.0, 10.2, &[], &[]), Verdict::Differs);
        assert_eq!(judge(m, 10.0, 9.0, &[], &[]), Verdict::Differs);
        assert_eq!(judge(m, 10.0, 12.0, &[], &[]), Verdict::Worse);
    }
}
