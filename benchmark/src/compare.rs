//! Reading result sets back: `compare` judges set B against set A by the
//! bounds of `BENCHMARK.json`; `summarize` condenses one set into the shape
//! of `baseline.json`.

use crate::json::Value;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, traced)` → metric → one value per run (that run's median),
/// plus each metric's unit and the first run's host block.
#[derive(Default)]
struct ResultSet {
    groups: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>,
    units: BTreeMap<String, String>,
    host: Option<Value>,
}

impl ResultSet {
    fn load(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::parse(&text, &path.display().to_string())
    }

    /// One run per line; `origin` names the text in error messages.
    fn parse(text: &str, origin: &str) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |what: &str| format!("{origin}:{}: {what}", number + 1);
            let run = Value::parse(line).map_err(|e| at(&e))?;
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| at("no workload"))?;
            let traced = run.get("trace") == Some(&Value::Bool(true));
            let metrics = run
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or_else(|| at("no metrics"))?;
            let group = set
                .groups
                .entry((workload.to_string(), traced))
                .or_default();
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| at(&format!("metric {name} has no value")))?;
                group.entry(name.clone()).or_default().push(value);
                if let Some(unit) = metric.get("unit").and_then(Value::as_str) {
                    set.units.insert(name.clone(), unit.to_string());
                }
            }
            if set.host.is_none() {
                set.host = run.get("host").cloned();
            }
        }
        if set.groups.is_empty() {
            return Err(format!("{origin}: no runs"));
        }
        Ok(set)
    }
}

/// What `BENCHMARK.json` says about one end-to-end metric.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared_metrics(path: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let decl = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    decl.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str);
            match (
                text("name"),
                text("better"),
                m.get("bound").and_then(Value::as_f64),
            ) {
                (Some(name), Some(better), Some(bound)) => Ok(Declared {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!(
                    "{}: a metric lacks name, better or bound",
                    path.display()
                )),
            }
        })
        .collect()
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound and the sides'
    /// quartile ranges do not touch.
    Worse,
    /// The medians differ by more than the bound but the quartile ranges
    /// overlap: the runs do not resolve the difference.
    Unresolved,
}

/// Relative difference of the medians, positive when B is worse, and the
/// verdict against `bound`.
pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let base = a.median.abs();
    let delta = if lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    let worse_by = if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / base
    };
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    let verdict = if worse_by.abs() <= bound {
        Verdict::Ok
    } else if overlap {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

pub fn compare(a: &Path, b: &Path, bounds: &Path, layers: bool) -> i32 {
    let loaded =
        ResultSet::load(a).and_then(|sa| Ok((sa, ResultSet::load(b)?, declared_metrics(bounds)?)));
    let (set_a, set_b, declared) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<12} {:<26} {:>6} | {:>13} {:>27} {:>3} | {:>13} {:>27} {:>3} | {:>9} {:>7}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "[q1, q3]",
        "n",
        "B median",
        "[q1, q3]",
        "n",
        "B worse",
        "bound"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    for ((workload, traced), metrics_a) in &set_a.groups {
        let Some(metrics_b) = set_b.groups.get(&(workload.clone(), *traced)) else {
            println!(
                "{workload:<12} (trace {}) is missing from B",
                u8::from(*traced)
            );
            continue;
        };
        if *traced && !layers {
            continue;
        }
        let row = |name: &str, rule: Option<&Declared>| -> Option<Verdict> {
            let (va, vb) = (metrics_a.get(name)?, metrics_b.get(name)?);
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let (worse_by, verdict) = match rule {
                Some(d) => judge(&sa, &sb, d.lower_is_better, d.bound),
                None => (judge(&sa, &sb, true, f64::INFINITY).0, Verdict::Ok),
            };
            let range = |s: &Summary| format!("[{:.6}, {:.6}]", s.q1, s.q3);
            println!(
                "{workload:<12} {name:<26} {:>6} | {:>13.6} {:>27} {:>3} | {:>13.6} {:>27} {:>3} | {:>+8.2}% {:>7}  {}",
                set_a.units.get(name).map_or("", String::as_str),
                sa.median,
                range(&sa),
                sa.n,
                sb.median,
                range(&sb),
                sb.n,
                100.0 * worse_by,
                rule.map_or("-".to_string(), |d| if d.bound >= 0.01 {
                    format!("{:.0}%", 100.0 * d.bound)
                } else {
                    format!("{:e}", d.bound)
                }),
                match (rule, verdict) {
                    (None, _) => "",
                    (_, Verdict::Ok) => "ok",
                    (_, Verdict::Worse) => "worse",
                    (_, Verdict::Unresolved) => "unresolved",
                }
            );
            Some(verdict)
        };
        if *traced {
            // Per-layer metrics have no bound: shown, not judged.
            for name in metrics_a.keys() {
                row(name, None);
            }
        } else {
            for d in &declared {
                match row(&d.name, Some(d)) {
                    Some(Verdict::Worse) => worse += 1,
                    Some(Verdict::Unresolved) => unresolved += 1,
                    Some(Verdict::Ok) => {}
                    None => println!("{workload:<12} {:<26} is missing from a side", d.name),
                }
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    i32::from(worse > 0)
}

/// One set condensed: per workload and metric, the median and quartiles
/// over its runs.
pub fn summarize(path: &Path) -> i32 {
    let set = match ResultSet::load(path) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("benchmark summarize: {e}");
            return 2;
        }
    };
    let mut workloads: BTreeMap<&str, Vec<(String, Value)>> = BTreeMap::new();
    for ((workload, traced), metrics) in &set.groups {
        let runs = metrics.values().map(Vec::len).max().unwrap_or(0);
        let table = Value::obj(metrics.iter().map(|(name, values)| {
            let s = Summary::of(values);
            (
                name.as_str(),
                Value::obj([
                    ("median", Value::from(s.median)),
                    ("q1", Value::from(s.q1)),
                    ("q3", Value::from(s.q3)),
                    ("spread", Value::from(s.spread())),
                    ("runs", Value::from(s.n as f64)),
                    (
                        "unit",
                        Value::from(set.units.get(name).map_or("", String::as_str)),
                    ),
                ]),
            )
        }));
        let (runs_key, table_key) = if *traced {
            ("traced_runs", "per_layer")
        } else {
            ("untraced_runs", "end_to_end")
        };
        let entry = workloads.entry(workload).or_default();
        entry.push((runs_key.to_string(), Value::from(runs as f64)));
        entry.push((table_key.to_string(), table));
    }
    let summary = Value::obj([
        ("host", set.host.clone().unwrap_or(Value::Null)),
        (
            "workloads",
            Value::obj(
                workloads
                    .into_iter()
                    .map(|(w, fields)| (w, Value::Obj(fields))),
            ),
        ),
    ]);
    println!("{}", pretty(&summary, 0));
    0
}

/// `value` over several lines: objects one key per line down to the metric
/// rows, which stay on one line each.
fn pretty(value: &Value, depth: usize) -> String {
    match value {
        Value::Obj(pairs) if depth < 4 && pairs.iter().any(|(_, v)| matches!(v, Value::Obj(_))) => {
            let pad = "  ".repeat(depth + 1);
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", Value::from(k.as_str()), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, half_width: f64) -> Summary {
        Summary {
            value: center,
            median: center,
            q1: center - half_width,
            q3: center + half_width,
            n: 5,
        }
    }

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let a = around(1.0, 0.01);
        assert_eq!(judge(&a, &around(1.05, 0.01), true, 0.10).1, Verdict::Ok);
        assert_eq!(judge(&a, &around(0.95, 0.01), true, 0.10).1, Verdict::Ok);
        let (by, _) = judge(&a, &around(1.05, 0.01), true, 0.10);
        assert!((by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn beyond_the_bound_with_separate_quartiles_is_worse_only_in_the_bad_direction() {
        let a = around(1.0, 0.01);
        assert_eq!(judge(&a, &around(1.2, 0.01), true, 0.10).1, Verdict::Worse);
        // Faster by 20 %: a gain, not a regression.
        assert_eq!(judge(&a, &around(0.8, 0.01), true, 0.10).1, Verdict::Ok);
        // For a higher-is-better metric the directions swap.
        assert_eq!(judge(&a, &around(0.8, 0.01), false, 0.10).1, Verdict::Worse);
        assert_eq!(judge(&a, &around(1.2, 0.01), false, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_with_overlapping_quartiles_is_unresolved() {
        let a = around(1.0, 0.15);
        assert_eq!(
            judge(&a, &around(1.2, 0.15), true, 0.10).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&a, &around(0.8, 0.15), true, 0.10).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_must_repeat_exactly_under_a_zero_bound() {
        let a = Summary::exact(0.25);
        assert_eq!(judge(&a, &Summary::exact(0.25), false, 0.0).1, Verdict::Ok);
        assert_eq!(
            judge(&a, &Summary::exact(0.24), false, 0.0).1,
            Verdict::Worse
        );
        // A zero base cannot be divided by: any change is beyond any bound.
        let zero = Summary::exact(0.0);
        assert_eq!(judge(&zero, &Summary::exact(0.0), true, 0.1).1, Verdict::Ok);
        assert_eq!(
            judge(&zero, &Summary::exact(1.0), true, 0.1).1,
            Verdict::Worse
        );
    }

    #[test]
    fn a_result_set_groups_runs_by_workload_and_trace() {
        let run = |workload: &str, trace: bool, value: f64| {
            Value::obj([
                ("workload", Value::from(workload)),
                ("trace", Value::from(trace)),
                ("host", Value::obj([("nproc", Value::from(2.0))])),
                (
                    "metrics",
                    Value::obj([(
                        "steady_s",
                        Value::obj([("value", Value::from(value)), ("unit", Value::from("s"))]),
                    )]),
                ),
            ])
            .to_string()
        };
        let lines = [
            run("nell3", false, 1.0),
            run("nell3", false, 3.0),
            run("nell3", true, 9.0),
            run("dense3", false, 2.0),
        ];
        let set = ResultSet::parse(&lines.join("\n"), "set").unwrap();
        assert_eq!(set.groups.len(), 3);
        assert_eq!(
            set.groups[&("nell3".to_string(), false)]["steady_s"],
            vec![1.0, 3.0]
        );
        assert_eq!(
            set.groups[&("nell3".to_string(), true)]["steady_s"],
            vec![9.0]
        );
        assert_eq!(set.units["steady_s"], "s");
        assert_eq!(set.host.unwrap().get("nproc").unwrap().as_f64(), Some(2.0));
        assert!(ResultSet::parse("\n", "set").is_err());
        assert!(ResultSet::parse("{\"trace\": false}", "set").is_err());
    }
}
