//! A steady, seeded, layer-by-layer benchmark of the sIOPMP check,
//! daemon and DMA-simulation paths.
//!
//! Four closed-loop workloads drive the public APIs of `siopmp`,
//! `siopmp-serviced`, `siopmp-bus` and `siopmp-scenario`:
//!
//! - [`check::check_stream`]: a reader streams single-page bursts
//!   through `SharedSiopmp::check_batch` against a warm decision cache;
//! - [`check::check_churn`]: scattered checks with entry flaps and cold
//!   switches interleaved, so every few checks republish the snapshot;
//! - [`daemon::daemon_wire`]: wire frame → verdict frame through the
//!   admission daemon, on the committed `corpus/` fleet;
//! - [`dma::dma_sim`]: a seeded four-domain `.scn` run by `ParallelSim`.
//!
//! Each workload builds its inputs from the seed, measures fixed-work
//! windows for the requested time, checks every verdict against the
//! class its generator intended and reports the median across windows.
//! A traced run adds the per-layer figures, timed from this crate around
//! calls into each layer and read from the layers' telemetry counters.
//! See `README.md` beside this crate for the workloads, metrics and the
//! layer → end-to-end table.

pub mod check;
pub mod daemon;
pub mod dma;
pub mod measure;
pub mod report;

use std::collections::BTreeMap;
use std::path::PathBuf;

use report::Values;

/// What one run of a workload is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for every generated input.
    pub seed: u64,
    /// Seconds of measured windows (split evenly between the untraced
    /// and the traced phase of a traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The fleet directory `daemon_wire` serves.
    pub corpus: PathBuf,
}

/// The workloads, in the order the benchmark documents them.
pub const WORKLOADS: &[&str] = &["check_stream", "check_churn", "daemon_wire", "dma_sim"];

/// Runs the named workload.
///
/// # Errors
///
/// An unknown workload name, or a set-up the program refused (e.g. a
/// fleet that fails to load).
pub fn run(workload: &str, cfg: &RunConfig) -> Result<report::Outcome, String> {
    match workload {
        "check_stream" => check::check_stream(cfg),
        "check_churn" => check::check_churn(cfg),
        "daemon_wire" => daemon::daemon_wire(cfg),
        "dma_sim" => dma::dma_sim(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// `siopmp.*` counters bumped by the mutators rather than by checks;
/// left out of the per-check side-effect count.
const WRITE_PATH_COUNTERS: &[&str] = &["siopmp.cache.invalidations", "siopmp.cold_switches"];

/// Counter values of one registry, by name.
pub type Counters = BTreeMap<String, u64>;

/// Sum of `name`'s delta over every (before, after) pair (one per unit).
fn delta(pairs: &[(Counters, Counters)], name: &str) -> u64 {
    pairs
        .iter()
        .map(|(b, a)| {
            a.get(name)
                .copied()
                .unwrap_or(0)
                .wrapping_sub(b.get(name).copied().unwrap_or(0))
        })
        .sum()
}

/// Records the count-derived unit metrics (routing shares, cache hit
/// ratio, side effects per check, publishes, view rebuilds, cold
/// switches) from before/after counter snapshots of one or more units'
/// registries, over a fixed-work pass that published `publishes`
/// snapshots. Every value is an exact count or ratio of counts.
pub fn record_unit_counts(values: &mut Values, pairs: &[(Counters, Counters)], publishes: u64) {
    let checks = delta(pairs, "siopmp.checks");
    let frac = |n: u64| {
        if checks == 0 {
            0.0
        } else {
            n as f64 / checks as f64
        }
    };
    values.set(
        "route.hot_frac",
        frac(delta(pairs, "siopmp.hot_hits")),
        checks,
    );
    values.set(
        "route.cold_frac",
        frac(delta(pairs, "siopmp.cold_hits")),
        checks,
    );
    values.set(
        "route.missing_frac",
        frac(delta(pairs, "siopmp.sid_missing_interrupts")),
        checks,
    );
    let hits = delta(pairs, "siopmp.cache.hits");
    let misses = delta(pairs, "siopmp.cache.misses");
    let eligible = hits + misses;
    let ratio = if eligible == 0 {
        0.0
    } else {
        hits as f64 / eligible as f64
    };
    values.set("cache.hit_ratio", ratio, eligible);
    let names: std::collections::BTreeSet<&String> =
        pairs.iter().flat_map(|(_, a)| a.keys()).collect();
    let bumps: u64 = names
        .into_iter()
        .filter(|n| n.starts_with("siopmp.") && !n.starts_with("siopmp.serviced."))
        .filter(|n| !WRITE_PATH_COUNTERS.contains(&n.as_str()))
        .map(|n| delta(pairs, n))
        .sum();
    values.set("effects.counter_bumps_per_check", frac(bumps), checks);
    values.set("snapshot.publishes", publishes as f64, publishes);
    let rebuilds = delta(pairs, "siopmp.cache.view_rebuilds");
    let per_publish = if publishes == 0 {
        0.0
    } else {
        rebuilds as f64 / publishes as f64
    };
    values.set("view.rebuilds_per_publish", per_publish, publishes);
    let switches = delta(pairs, "siopmp.cold_switches");
    values.set("unit.cold_switches", switches as f64, checks);
}
