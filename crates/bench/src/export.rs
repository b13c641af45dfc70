//! Machine-readable experiment export.
//!
//! Every experiment hands back an [`Exporter`]; `vfpga-exp --json <path>`
//! writes it as a `vfpga-bench/2` document: run parameters, seed, a metrics
//! snapshot, rendered tables, and per-run reports with utilization
//! timelines and the per-phase overhead breakdown. The format is stable
//! across runs (insertion-ordered objects, deterministic metric names), so
//! downstream tooling can diff two exports byte-for-byte.
//!
//! Every report has the same shape whatever the run had switched on: the
//! counter sections `manager_stats`, `fault`, `crash`, `delta`,
//! `admission` and `fleet` are walked off [`vfpga::counters`] (a `u64`
//! field as `<field>`, a `SimDuration` as `<field>_s` in seconds), all
//! zero where the run had no such subsystem, and every task object
//! carries every flag.

use crate::report::Table;
use crate::Json;
use fsim::json::Obj;
use fsim::{Metrics, Timeline, TimelineSet};
use vfpga::counters::{Counters, Value};
use vfpga::Report;

/// Schema identifier written into every export.
pub const SCHEMA: &str = "vfpga-bench/2";

fn summary_json(s: &fsim::Summary) -> Json {
    Obj::new()
        .set("count", s.count())
        .set("mean", s.mean())
        .set("min", s.min())
        .set("max", s.max())
        .set("stddev", s.stddev())
        .build()
}

fn metrics_json(m: &Metrics) -> Json {
    let mut counters = Obj::new();
    for (k, v) in m.counters() {
        counters = counters.set(k, v);
    }
    let mut gauges = Obj::new();
    for (k, v) in m.gauges() {
        gauges = gauges.set(k, v);
    }
    let mut summaries = Obj::new();
    for (k, s) in m.summaries() {
        summaries = summaries.set(k, summary_json(s));
    }
    Obj::new()
        .set("counters", counters)
        .set("gauges", gauges)
        .set("summaries", summaries)
        .build()
}

fn timeline_json(t: &Timeline) -> Json {
    Json::Arr(
        t.points()
            .iter()
            .map(|&(at, v)| Json::Arr(vec![Json::Num(at.as_secs_f64()), Json::Num(v)]))
            .collect(),
    )
}

fn timelines_json(set: &TimelineSet) -> Json {
    let mut obj = Obj::new();
    for (name, tl) in set.iter() {
        obj = obj.set(name, timeline_json(tl));
    }
    obj.build()
}

fn table_json(t: &Table) -> Json {
    Obj::new()
        .set("title", t.title())
        .set(
            "header",
            Json::Arr(t.header().iter().map(|h| Json::Str(h.clone())).collect()),
        )
        .set(
            "rows",
            Json::Arr(
                t.rows()
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(|c| Json::Str(c.clone())).collect()))
                    .collect(),
            ),
        )
        .build()
}

/// One counter section: every field of the table, in declaration order —
/// a `u64` as `<field>`, a `SimDuration` as `<field>_s` in seconds.
fn counters_json(c: &impl Counters) -> Obj {
    let mut o = Obj::new();
    c.visit(|name, v| {
        o = match v {
            Value::Count(n) => std::mem::take(&mut o).set(name, n),
            Value::Time(d) => std::mem::take(&mut o).set(&format!("{name}_s"), d.as_secs_f64()),
        }
    });
    o
}

fn report_json(label: &str, r: &Report) -> Json {
    let b = r.overhead_breakdown();
    let tasks = Json::Arr(
        r.tasks
            .iter()
            .map(|t| {
                Obj::new()
                    .set("name", t.name.as_str())
                    .set("arrival_s", t.arrival.as_secs_f64())
                    .set("completion_s", t.completion.as_secs_f64())
                    .set("cpu_s", t.cpu_time.as_secs_f64())
                    .set("fpga_s", t.fpga_time.as_secs_f64())
                    .set("overhead_s", t.overhead_time.as_secs_f64())
                    .set("lost_s", t.lost_time.as_secs_f64())
                    .set("fault_lost_s", t.fault_lost_time.as_secs_f64())
                    .set("blocked", t.blocked_count)
                    .set("failed", t.failed)
                    .set("corrupted", t.corrupted)
                    .set("degraded_s", t.degraded_time.as_secs_f64())
                    .set("quarantined", t.quarantined)
                    .set("rejected", t.rejected)
                    .set("unschedulable", t.unschedulable)
                    .set("deadline_missed", t.deadline_missed)
                    .set("lost_in_flight", t.lost_in_flight)
                    .set(
                        "waiting_s",
                        t.waiting_checked()
                            .map(|w| Json::Num(w.as_secs_f64()))
                            .unwrap_or(Json::Null),
                    )
                    .build()
            })
            .collect(),
    );
    Obj::new()
        .set("label", label)
        .set("manager", r.manager)
        .set("scheduler", r.scheduler)
        .set("makespan_s", r.makespan.as_secs_f64())
        .set("mean_turnaround_s", r.mean_turnaround_s())
        .set("mean_waiting_s", r.mean_waiting_s())
        .set("overhead_fraction", r.overhead_fraction())
        .set("cpu_utilization", r.cpu_utilization())
        .set("manager_stats", counters_json(&r.manager_stats))
        .set(
            "overhead_breakdown",
            Obj::new()
                .set("config_s", b.config.as_secs_f64())
                .set("state_s", b.state.as_secs_f64())
                .set("gc_s", b.gc.as_secs_f64())
                .set("rollback_loss_s", b.rollback_loss.as_secs_f64())
                .set("fault_retry_s", b.fault_retry.as_secs_f64())
                .set("checkpoint_s", b.checkpoint.as_secs_f64())
                .set("journal_replay_s", b.journal_replay.as_secs_f64())
                .set("watchdog_s", b.watchdog.as_secs_f64())
                .set("other_s", b.other.as_secs_f64())
                .set("total_s", b.total().as_secs_f64()),
        )
        .set(
            "fault",
            counters_json(&r.fault)
                .set(
                    "mttr_s",
                    r.fault
                        .mttr()
                        .map(|m| Json::Num(m.as_secs_f64()))
                        .unwrap_or(Json::Null),
                )
                .set("background_time_s", r.fault.background_time().as_secs_f64()),
        )
        .set("crash", counters_json(&r.crash))
        .set("delta", counters_json(&r.delta.unwrap_or_default()))
        .set("admission", counters_json(&r.admission.unwrap_or_default()))
        .set("fleet", counters_json(&r.fleet.unwrap_or_default()))
        .set("metrics", metrics_json(&r.metrics))
        .set("timelines", timelines_json(&r.timelines))
        .set("tasks", tasks)
        .build()
}

/// Collects one experiment's artifacts and writes the JSON document.
pub struct Exporter {
    experiment: String,
    title: String,
    seed: u64,
    params: Vec<(String, Json)>,
    metrics: Metrics,
    timelines: Vec<(String, Json)>,
    tables: Vec<Json>,
    reports: Vec<Json>,
}

impl Exporter {
    /// Start an export for experiment `experiment` (e.g. `"e01"`).
    pub fn new(experiment: &str, title: &str) -> Self {
        Exporter {
            experiment: experiment.to_string(),
            title: title.to_string(),
            seed: 0,
            params: Vec::new(),
            metrics: Metrics::new(),
            timelines: Vec::new(),
            tables: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Record the run's base RNG seed (0 when the experiment is seedless).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Record a run parameter.
    pub fn param(&mut self, name: &str, value: impl Into<Json>) -> &mut Self {
        self.params.push((name.to_string(), value.into()));
        self
    }

    /// The export-level metrics snapshot (counters the experiment itself
    /// maintains; report metrics are absorbed here too).
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Attach a rendered table.
    pub fn table(&mut self, t: &Table) -> &mut Self {
        self.tables.push(table_json(t));
        self
    }

    /// Attach a top-level timeline (for experiments without a System run).
    pub fn timeline(&mut self, name: &str, t: &Timeline) -> &mut Self {
        self.timelines.push((name.to_string(), timeline_json(t)));
        self
    }

    /// Attach a labelled simulation report; its registry folds into the
    /// export-level metrics snapshot and its timelines ride along.
    pub fn report(&mut self, label: &str, r: &Report) -> &mut Self {
        self.metrics.absorb(&r.metrics);
        self.reports.push(report_json(label, r));
        self
    }

    /// Build the full document.
    pub fn to_json(&self) -> Json {
        let mut params = Obj::new();
        for (k, v) in &self.params {
            params = params.set(k, v.clone());
        }
        let mut timelines = Obj::new();
        for (k, v) in &self.timelines {
            timelines = timelines.set(k, v.clone());
        }
        Obj::new()
            .set("schema", SCHEMA)
            .set("experiment", self.experiment.as_str())
            .set("title", self.title.as_str())
            .set("seed", self.seed)
            .set("params", params)
            .set("metrics", metrics_json(&self.metrics))
            .set("timelines", timelines)
            .set("tables", Json::Arr(self.tables.clone()))
            .set("reports", Json::Arr(self.reports.clone()))
            .build()
    }

    /// Render the document and read it back: the text must parse, carry
    /// the schema, and hold exactly the reports that were attached. An
    /// export that cannot be read back is broken even if the run "went
    /// fine".
    pub fn render_checked(&self) -> Result<String, String> {
        let text = self.to_json().render();
        let doc =
            Json::parse(&text).map_err(|e| format!("emitted JSON does not parse back: {e:?}"))?;
        let reports = doc.get("reports").and_then(Json::as_arr).map(<[Json]>::len);
        if doc.get("schema").is_none() || reports != Some(self.reports.len()) {
            return Err(format!(
                "emitted JSON is missing sections ({reports:?} reports read back, {} attached)",
                self.reports.len()
            ));
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim::SimTime;

    #[test]
    fn document_has_schema_and_sections() {
        let mut ex = Exporter::new("e99", "test export");
        ex.seed(42).param("width", 8u64);
        ex.metrics().inc("runs", 1);
        let mut tl = Timeline::new();
        tl.sample(SimTime::ZERO, 0.0);
        tl.sample(SimTime::ZERO + fsim::SimDuration::from_millis(10), 3.0);
        ex.timeline("occupancy", &tl);
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into()]);
        ex.table(&t);
        let r = ex.render_checked().expect("reads back");
        for needle in [
            "\"schema\": \"vfpga-bench/2\"",
            "\"experiment\": \"e99\"",
            "\"seed\": 42",
            "\"width\": 8",
            "\"runs\": 1",
            "\"occupancy\"",
            "\"tables\"",
            "\"reports\": []",
        ] {
            assert!(r.contains(needle), "missing {needle} in:\n{r}");
        }
    }

    #[test]
    fn report_json_includes_breakdown_and_timelines() {
        let r = Report::default();
        let j = report_json("base", &r).render();
        for needle in [
            "\"label\": \"base\"",
            "\"overhead_breakdown\"",
            "\"config_s\"",
            "\"manager_stats\"",
            "\"timelines\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }
}
