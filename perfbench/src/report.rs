//! Metric catalogue and output: the ledger table printed before the
//! result, and the one-line JSON result the benchmark ends with.
//!
//! The catalogue is the single source of truth for metric names, units,
//! clocks and the end-to-end metric each layer metric is predicted to
//! move; `BENCHMARK.json` must list the same names (a test checks it).

use std::collections::BTreeMap;

/// Which clock a number is on. The two time clocks are never mixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time on the host.
    Host,
    /// Cycles from the paper's calibrated timing model.
    Modelled,
    /// An exact count or ratio of counts (no clock).
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modelled => "modelled",
            Clock::Count => "count",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Clock the value is on.
    pub clock: Clock,
    /// Layer (module) the metric is measured at; `""` for end-to-end.
    pub layer: &'static str,
    /// The end-to-end metric and workload a change here should move.
    pub moves: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    layer: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        clock,
        layer,
        moves,
    }
}

/// End-to-end metrics, printed on every workload of an untraced run.
#[rustfmt::skip]
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Clock::Host, "", "median of fresh set-ups"),
    spec("ops_per_s", "1/s", Clock::Host, "", "median over fixed-work windows"),
    spec("lat_p50_us", "us", Clock::Host, "", "median over windows of the window p50"),
    spec("lat_p99_us", "us", Clock::Host, "", "median over windows of the window p99"),
    spec("peak_rss_mb", "MB", Clock::Host, "", "VmHWM of the workload process"),
];

const CS: &str = "ops_per_s on check_stream and check_churn";
const DW: &str = "lat_p50_us on daemon_wire";
const DMA: &str = "ops_per_s on dma_sim";

/// Per-layer metrics, printed on every workload of a traced run. A layer
/// a workload does not exercise reads 0 with 0 samples there.
#[rustfmt::skip]
pub const PER_LAYER: &[Spec] = &[
    spec("snapshot.acquire_ns", "ns", Clock::Host, "siopmp::snapshot", CS),
    spec("snapshot.publishes", "count", Clock::Count, "siopmp::snapshot", CS),
    spec("route.hot_frac", "ratio", Clock::Count, "siopmp::unit routing", "lat_p50_us on check_churn"),
    spec("route.cold_frac", "ratio", Clock::Count, "siopmp::unit routing", "lat_p50_us on check_churn"),
    spec("route.missing_frac", "ratio", Clock::Count, "siopmp::unit routing", "lat_p50_us on check_churn"),
    spec("cache.hit_ratio", "ratio", Clock::Count, "siopmp::cache", "lat_p50_us on check_stream"),
    spec("cache.hit_check_ns", "ns", Clock::Host, "siopmp::cache", "lat_p50_us on check_stream"),
    spec("cache.miss_check_ns", "ns", Clock::Host, "siopmp::cache", "ops_per_s on check_churn"),
    spec("view.rebuilds_per_publish", "ratio", Clock::Count, "compiled-view walk", "ops_per_s on check_churn"),
    spec("view.walk_ns", "ns", Clock::Host, "compiled-view walk", "ops_per_s on check_churn"),
    spec("effects.counter_bumps_per_check", "count", Clock::Count, "siopmp::telemetry side effects", "ops_per_s on check_stream"),
    spec("unit.write_us", "us", Clock::Host, "siopmp::unit mutators", "lat_p99_us and ops_per_s on check_churn"),
    spec("unit.cold_switches", "count", Clock::Count, "siopmp::unit mutators", "lat_p99_us and ops_per_s on check_churn"),
    spec("check.host_ns", "ns", Clock::Host, "check stage", "lat_p50_us"),
    spec("check.model_cycles", "cycles", Clock::Modelled, "check stage (CheckerKind::extra_cycles)", "none: modelled clock"),
    spec("proto.read_frame_ns", "ns", Clock::Host, "siopmp_serviced::proto", DW),
    spec("proto.parse_ns", "ns", Clock::Host, "siopmp_serviced::proto", DW),
    spec("proto.write_frame_ns", "ns", Clock::Host, "siopmp_serviced::proto", DW),
    spec("daemon.handle_ns", "ns", Clock::Host, "siopmp_serviced::{daemon,admission,fleet}", DW),
    spec("daemon.bare_check_ns", "ns", Clock::Host, "siopmp_serviced::{daemon,admission,fleet}", DW),
    spec("daemon.switch_us", "us", Clock::Host, "siopmp_serviced::{daemon,admission,fleet}", "lat_p99_us on daemon_wire"),
    spec("daemon.allowed", "count", Clock::Count, "siopmp_serviced::daemon", DW),
    spec("daemon.denied", "count", Clock::Count, "siopmp_serviced::daemon", DW),
    spec("daemon.shed", "count", Clock::Count, "siopmp_serviced::admission", DW),
    spec("daemon.switches", "count", Clock::Count, "siopmp_serviced::daemon", "lat_p99_us on daemon_wire"),
    spec("json.encode_ns", "ns", Clock::Host, "siopmp::json", "ops_per_s on daemon_wire"),
    spec("bus.host_ns_per_cycle", "ns", Clock::Host, "siopmp_bus::{sim,parallel}", DMA),
    spec("bus.host_ns_per_burst", "ns", Clock::Host, "siopmp_bus::{sim,parallel}", DMA),
    spec("bus.cross_domain_bursts", "count", Clock::Count, "siopmp_bus::parallel", DMA),
    spec("bus.policy_ns_per_burst", "ns", Clock::Host, "siopmp_bus::policy", "ops_per_s on dma_sim (small)"),
    spec("sim.cycles", "cycles", Clock::Modelled, "siopmp_bus::sim", "none: modelled clock"),
    spec("burst_lat_cycles", "cycles", Clock::Modelled, "siopmp_bus::sim (SimReport)", "none: modelled clock"),
    spec("setup.parse_ms", "ms", Clock::Host, "siopmp_scenario::parse", "setup_s"),
    spec("setup.compile_ms", "ms", Clock::Host, "siopmp_scenario::compile", "setup_s"),
    spec("setup.verify_ms", "ms", Clock::Host, "siopmp_verify", "setup_s"),
    spec("setup.start_ms", "ms", Clock::Host, "Serviced::start", "setup_s"),
    spec("setup.unit_build_ms", "ms", Clock::Host, "siopmp::unit", "setup_s"),
    spec("trace.untraced_ops_per_s", "1/s", Clock::Host, "tracing", "reference"),
    spec("trace.traced_ops_per_s", "1/s", Clock::Host, "tracing", "reference"),
    spec("trace.overhead_frac", "ratio", Clock::Host, "tracing", "none: cost of the traced run"),
];

/// A measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Samples (timed calls, ops or windows) behind it.
    pub samples: u64,
}

/// Values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub BTreeMap<&'static str, Value>);

impl Values {
    /// Records `name`; panics on a name the catalogue does not know, so a
    /// typo cannot silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "metric `{name}` is not catalogued"
        );
        self.0.insert(name, Value { value, samples });
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted in the measured (and counted) phases.
    pub attempted: u64,
    /// Ops whose verdict was an error, a shed, a stall, or not the class
    /// the generator intended.
    pub failed: u64,
    /// Other consistency checks that failed (e.g. a simulation report
    /// that differed between runs); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Measured values.
    pub values: Values,
    /// Free-form ledger lines (sample counts, modelled figures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Share of attempted ops that failed.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.problems.is_empty()
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The ledger table for `specs`: one row per metric with value, unit,
/// clock, samples and (for layer metrics) the end-to-end metric it moves.
pub fn ledger_table(specs: &[Spec], values: &Values) -> Vec<String> {
    let mut lines = vec![format!(
        "# {:<32} {:>16} {:<6} {:<8} {:>10}  {:<42} moves",
        "metric", "value", "unit", "clock", "samples", "layer"
    )];
    for s in specs {
        let v = values.get(s.name).unwrap_or(Value {
            value: 0.0,
            samples: 0,
        });
        let shown = if v.samples == 0 {
            "-".to_string()
        } else {
            format!("{:.4}", v.value)
        };
        lines.push(format!(
            "# {:<32} {:>16} {:<6} {:<8} {:>10}  {:<42} {}",
            s.name,
            shown,
            s.unit,
            s.clock.label(),
            v.samples,
            if s.layer.is_empty() {
                "end-to-end"
            } else {
                s.layer
            },
            s.moves
        ));
    }
    lines
}

/// The one-line JSON result: every metric of `specs`, with its unit.
pub fn result_line(outcome: &Outcome, specs: &[Spec]) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let v = outcome.values.get(s.name).map(|v| v.value).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name,
                fmt_value(v),
                s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(s.name), "duplicate metric {}", s.name);
            assert!(s.name.len() <= 64);
            assert!(s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.values.set("ops_per_s", 1234.5, 3);
        let line = result_line(&o, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for s in END_TO_END {
            assert!(line.contains(&format!("\"{}\"", s.name)));
        }
        assert!(line.contains("\"value\": 1234.5"));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_metric_names_are_refused() {
        Values::default().set("no.such_metric", 1.0, 1);
    }
}
