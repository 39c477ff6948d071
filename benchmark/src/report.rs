//! Output: the metric definitions read from `BENCHMARK.json`, the
//! host fingerprint, the per-workload tables, result documents and
//! the comparison of two of them.

use std::process::Command;

use crate::json::Json;
use crate::run::Outcome;
use crate::util::{median, quantile};

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base by which the metric may worsen; `None` for
    /// per-layer rows, which never gate.
    pub bound: Option<f64>,
}

/// The metric lists of the repository's `BENCHMARK.json`, compiled in
/// so names, units and bounds have one home.
pub struct Manifest {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn embedded() -> Result<Manifest, String> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without `{f}`"))
                    };
                    Ok(MetricDef {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    pub fn defs(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    fn unit_of(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
            .map_or("", |d| d.unit.as_str())
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on; recorded in every result file.
pub fn fingerprint(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|t| t.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        ("cpu_model", Json::str(cpu)),
        ("load_average_at_start", Json::str(load)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

pub fn print_fingerprint(seed: u64) {
    println!("fingerprint {}", fingerprint(seed));
}

pub fn print_outcome(outcome: &Outcome, manifest: &Manifest, traced: bool) {
    println!(
        "== {} ({}) seed {} inputs {:016x}",
        outcome.workload,
        if traced { "traced" } else { "untraced" },
        outcome.seed,
        outcome.hash
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<52} {value:>16.4} {}", manifest.unit_of(name));
    }
    for (name, value) in &outcome.context {
        println!("  ({name:<50}) {value:>16.4}");
    }
    for (name, values) in &outcome.samples {
        let rendered: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("  [{name}: {}]", rendered.join(" "));
    }
    if traced {
        print_stage_summary(outcome);
        print_fig3_ratios(outcome);
    }
    println!(
        "  operations attempted {} failed {} failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Stage medians and the broker's self time next to the `publish`
/// median: what the twin stages explain and what they do not.
fn print_stage_summary(outcome: &Outcome) {
    let publish = metric(outcome, "trace.publish_ns");
    let stages: Vec<String> = crate::trace::STAGES
        .iter()
        .map(|s| format!("{s} {:.0}", metric(outcome, &format!("trace.{s}_ns"))))
        .collect();
    println!(
        "  publish median {publish:.0} ns = {} + self {:.0}; unaccounted share {:.4}",
        stages.join(" + "),
        metric(outcome, "broker.publish.self_ns_per_event"),
        metric(outcome, "trace.unaccounted_share"),
    );
}

fn print_fig3_ratios(outcome: &Outcome) {
    let ratios: Vec<String> = [6, 8, 10]
        .iter()
        .map(|p| {
            format!(
                "p={p}: {:.3}",
                metric(
                    outcome,
                    &format!("fig3.ratio.p{p}.noncanonical_over_counting")
                )
            )
        })
        .collect();
    println!(
        "  non-canonical / counting phase-2 time at {}",
        ratios.join(", ")
    );
}

/// The one-line result object the `BENCHMARK.json` contract asks for:
/// exactly the manifest's metrics for this kind of run.
pub fn driver_line(outcome: &Outcome, manifest: &Manifest, traced: bool) -> Result<Json, String> {
    let defs = manifest.defs(traced);
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!(
            "metric `{extra}` is measured but not in BENCHMARK.json"
        ));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| {
                format!(
                    "metric `{}` is in BENCHMARK.json but not measured",
                    def.name
                )
            })?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", def.name));
        }
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&*def.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// A whole suite's results with the fingerprint, as written to
/// `out/<mode>-seed<N>.json` and read back by `compare`.
pub fn document(
    outcomes: &[Outcome],
    manifest: &Manifest,
    mode: &str,
    seed: u64,
    seconds: f64,
) -> Json {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let rows = |rows: &[(String, f64)]| {
                Json::Obj(
                    rows.iter()
                        .map(|(n, v)| {
                            (
                                n.clone(),
                                Json::obj([
                                    ("value", Json::Num(*v)),
                                    ("unit", Json::str(manifest.unit_of(n))),
                                ]),
                            )
                        })
                        .collect(),
                )
            };
            Json::obj([
                ("name", Json::str(o.workload)),
                ("inputs_hash", Json::str(format!("{:016x}", o.hash))),
                ("attempted", Json::Num(o.attempted as f64)),
                ("failed", Json::Num(o.failed as f64)),
                ("metrics", rows(&o.metrics)),
                ("context", rows(&o.context)),
                (
                    "samples",
                    Json::Obj(
                        o.samples
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::nums(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("mode", Json::str(mode)),
        ("seconds", Json::Num(seconds)),
        ("fingerprint", fingerprint(seed)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// Spread of the samples behind a median, as the distance between
/// the quartiles over the median — the base result's own noise.
fn spread(samples: &[f64]) -> Option<f64> {
    (samples.len() >= 4)
        .then(|| (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples))
}

/// Prints, for every (workload, metric) pair both documents hold, the
/// ratio new ÷ old with its base, and flags end-to-end metrics that
/// got worse by more than their bound. Returns the number flagged.
pub fn compare(old: &Json, new: &Json, manifest: &Manifest) -> usize {
    let mut flagged = 0;
    println!(
        "{:<22} {:<44} {:>14} {:>14} {:>8} {:>8} {:>7}",
        "workload", "metric", "old (base)", "new", "new/old", "worse", "bound"
    );
    for old_w in old.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let name = old_w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(new_w) = new
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<22} missing from the new results");
            flagged += 1;
            continue;
        };
        if old_w.get("inputs_hash") != new_w.get("inputs_hash") {
            println!("{name:<22} inputs differ: the two runs did not measure the same work");
        }
        let value = |w: &Json, metric: &str| {
            w.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        let metrics = old_w.get("metrics").map(Json::as_obj).unwrap_or_default();
        for (metric, _) in metrics {
            let (Some(a), Some(b)) = (value(old_w, metric), value(new_w, metric)) else {
                continue;
            };
            let def = manifest
                .end_to_end
                .iter()
                .chain(&manifest.per_layer)
                .find(|d| d.name == *metric);
            let higher = def.is_some_and(|d| d.higher_is_better);
            let worse = if a == 0.0 {
                0.0
            } else if higher {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let bound = def.and_then(|d| d.bound);
            let flag = bound.is_some_and(|limit| worse > limit);
            flagged += usize::from(flag);
            let noise = old_w
                .get("samples")
                .and_then(|s| s.get(metric))
                .map(|s| {
                    s.as_arr()
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect::<Vec<_>>()
                })
                .and_then(|s| spread(&s))
                .map_or(String::new(), |s| format!(" (base IQR {:.1}%)", s * 100.0));
            println!(
                "{name:<22} {metric:<44} {a:>14.4} {b:>14.4} {:>8.4} {:>7.2}% {:>7}{}{noise}",
                if a == 0.0 { 1.0 } else { b / a },
                worse * 100.0,
                bound.map_or("-".to_string(), |l| format!("{:.1}%", l * 100.0)),
                if flag { "  REGRESSION" } else { "" },
            );
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(new_w) > failed(old_w) {
            println!(
                "{name:<22} failed operations rose from {} to {}  REGRESSION",
                failed(old_w),
                failed(new_w)
            );
            flagged += 1;
        }
    }
    println!("{flagged} flagged");
    flagged
}
