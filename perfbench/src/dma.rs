//! `dma_sim`: the DMA path, burst issue → `ParallelSim` → completion.
//!
//! A seeded `.scn` text describes four domains, each a 1024-entry unit
//! (every hot domain window filled) with eight masters of 512 bursts.
//! The last master of each domain writes into the next domain's home
//! window, so the hierarchical double-check and the epoch-barrier
//! exchange run. Every simulation is compiled afresh, so it starts with
//! empty decision caches. The stream length is part of the workload: the
//! host cost per burst grows with run length, so a shorter stream would
//! measure a different program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use siopmp::ids::DeviceId;
use siopmp::request::AccessKind;
use siopmp::Siopmp;
use siopmp_bus::parallel::{DomainSpec, ParallelSim};
use siopmp_bus::policy::AccessPolicy;
use siopmp_bus::{BurstKind, ControlOp, MasterProgram, PolicyVerdict, SimReport, SiopmpPolicy};
use siopmp_scenario::ast::{Kind, Mode};
use siopmp_scenario::{compile, domain_units, parse, RunOptions, Scenario};
use siopmp_testkit::Rng;

use crate::measure::{median, median_setup, ns_since, peak_rss_mb, probed_on, Window, WindowStats};
use crate::report::{Outcome, Values};
use crate::{record_unit_counts, RunConfig};

/// Domains (shards).
pub const DOMAINS: u64 = 4;
/// Masters per domain; the last one writes across.
pub const MASTERS: u64 = 8;
/// Bursts per master.
pub const BURSTS: usize = 512;
/// Worker threads of the parallel engine.
pub const THREADS: usize = 2;
const PAGE: u64 = 4096;
const HOME: u64 = 0x1000_0000;
/// Pages each master's 512 × 64 B stream covers.
const STREAM_PAGES: u64 = 8;
/// Filler pages, never accessed, live at this offset in each home.
const FILLER_OFFSET: u64 = 0x800_0000;
/// Cross-domain targets live at this offset in the destination's home.
const INGRESS_OFFSET: u64 = 0x100_0000;
/// Entries in each hot domain window of the default 1024-entry config
/// (1016 hot entries over 62 domains: the first 24 hold 17).
fn window_len(md: u64) -> u64 {
    16 + u64::from(md < 24)
}
const HOT_MDS: u64 = 62;
/// Fresh set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Simulations per window.
const SIMS_PER_WINDOW: usize = 4;
/// Windows measured at least, whatever the time budget.
const MIN_WINDOWS: usize = 3;

/// Total master bursts per simulation.
pub const SIM_BURSTS: u64 = DOMAINS * MASTERS * BURSTS as u64;

fn home(d: u64) -> u64 {
    HOME * (d + 1)
}

fn device(d: u64, k: u64) -> u64 {
    0x100 * (d + 1) + k
}

/// Generates the `.scn` text for `seed`. Only placement (stream pages,
/// entry order, filler pages) depends on the seed; the traffic mix is
/// fixed so that every seed asks the same amount of work.
pub fn scenario_text(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed ^ 0xD3A0_0001);
    let mut out = String::new();
    out.push_str("scenario perfbench-dma\n");
    out.push_str("describe Four 1024-entry domains, eight 512-burst masters each, one cross-domain writer per domain.\n");
    out.push_str("config sids=64 mds=63 entries=1024 cold_entries=8 cache=1024\n");
    // Stream page offsets (in pages) of every master, and of each
    // writer's target in the next domain.
    let stream: Vec<Vec<u64>> = (0..DOMAINS)
        .map(|_| (0..MASTERS).map(|_| rng.gen_range(0..240) * PAGE).collect())
        .collect();
    for d in 0..DOMAINS {
        out.push_str(&format!("\ndomain d{d}\n  home {:#x} {HOME:#x}\n", home(d)));
        let prev = (d + DOMAINS - 1) % DOMAINS;
        for k in 0..MASTERS {
            out.push_str(&format!(
                "  device {} hot md={},{}\n",
                device(d, k),
                2 * k,
                2 * k + 1
            ));
        }
        // The previous domain's writer, checked again on ingress.
        let ingress_md = 2 * MASTERS;
        out.push_str(&format!(
            "  device {} hot md={},{}\n",
            device(prev, MASTERS - 1),
            ingress_md,
            ingress_md + 1
        ));
        // Fill every hot window. A device's stream pages take seeded
        // slots in its two windows; filler pages take the rest.
        let mut filler = 0u64;
        for pair in 0..HOT_MDS / 2 {
            let mds = [2 * pair, 2 * pair + 1];
            let slots = window_len(mds[0]) + window_len(mds[1]);
            let base = if pair < MASTERS - 1 {
                Some(home(d) + pair * 0x10_0000 + stream[d as usize][pair as usize])
            } else if pair == MASTERS - 1 {
                // The writer's own grant covers its target across.
                let next = (d + 1) % DOMAINS;
                Some(home(next) + INGRESS_OFFSET + stream[d as usize][pair as usize])
            } else if pair == MASTERS {
                Some(home(d) + INGRESS_OFFSET + stream[prev as usize][(MASTERS - 1) as usize])
            } else {
                None
            };
            let mut stream_slots: Vec<u64> = Vec::new();
            if base.is_some() {
                while (stream_slots.len() as u64) < STREAM_PAGES {
                    let s = rng.gen_range(0..slots);
                    if !stream_slots.contains(&s) {
                        stream_slots.push(s);
                    }
                }
            }
            let mut page = 0;
            for s in 0..slots {
                let md = if s < window_len(mds[0]) {
                    mds[0]
                } else {
                    mds[1]
                };
                let (addr, perms) = match (base, stream_slots.contains(&s)) {
                    (Some(b), true) => {
                        page += 1;
                        (b + (page - 1) * PAGE, "rw")
                    }
                    _ => {
                        filler += 1;
                        let perms = if rng.gen_bool(0.5) { "r" } else { "rw" };
                        (
                            home(d) + FILLER_OFFSET + (filler + rng.gen_range(0..4)) * 4 * PAGE,
                            perms,
                        )
                    }
                };
                out.push_str(&format!("  entry md={md} {addr:#x} {PAGE:#x} {perms}\n"));
            }
        }
        for k in 0..MASTERS {
            let (kind, base) = if k == MASTERS - 1 {
                let next = (d + 1) % DOMAINS;
                (
                    "write",
                    home(next) + INGRESS_OFFSET + stream[d as usize][k as usize],
                )
            } else {
                let kind = if k < MASTERS / 2 { "read" } else { "write" };
                (
                    kind,
                    home(d) + k * 0x10_0000 + stream[d as usize][k as usize],
                )
            };
            out.push_str(&format!(
                "  master device={} kind={kind} mode=stream base={base:#x} stride=64 count={BURSTS} outstanding=2\n",
                device(d, k)
            ));
        }
    }
    out.push_str(&format!(
        "\nrun max_cycles=4000000 epoch=64 threads={THREADS}\n"
    ));
    out
}

/// A transparent `AccessPolicy` wrapper that times every decision call
/// into the wrapped sIOPMP policy and forwards every other method.
pub struct TimedPolicy {
    inner: SiopmpPolicy,
    ns: Arc<AtomicU64>,
    decisions: Arc<AtomicU64>,
}

impl AccessPolicy for TimedPolicy {
    fn decide(&mut self, device: DeviceId, kind: AccessKind, addr: u64, len: u64) -> PolicyVerdict {
        let t = Instant::now();
        let v = self.inner.decide(device, kind, addr, len);
        self.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.decisions.fetch_add(1, Ordering::Relaxed);
        v
    }

    fn decide_batch(&mut self, reqs: &[(DeviceId, AccessKind, u64, u64)]) -> Vec<PolicyVerdict> {
        let t = Instant::now();
        let v = self.inner.decide_batch(reqs);
        self.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.decisions
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        v
    }

    fn control(&mut self, op: &ControlOp) -> bool {
        self.inner.control(op)
    }

    fn siopmp_unit(&self) -> Option<&Siopmp> {
        self.inner.siopmp_unit()
    }

    fn siopmp_unit_mut(&mut self) -> Option<&mut Siopmp> {
        self.inner.siopmp_unit_mut()
    }
}

/// Lowers `s` like `siopmp_scenario::compile` does, with every domain's
/// policy wrapped in a [`TimedPolicy`] sharing `ns` and `decisions`.
/// Supports what [`scenario_text`] emits: single-segment masters with no
/// retry and no fault plans.
///
/// # Errors
///
/// Compile errors, or a scenario feature this lowering does not carry.
pub fn compile_timed(
    s: &Scenario,
    ns: &Arc<AtomicU64>,
    decisions: &Arc<AtomicU64>,
) -> Result<ParallelSim, String> {
    let bus = siopmp_scenario::compile::bus_config(s);
    let mut psim = ParallelSim::new(s.run.epoch, s.run.threads.unwrap_or(1));
    let units = domain_units(s).map_err(|e| e.to_string())?;
    for (d, built) in s.domains.iter().zip(units) {
        if d.faults.is_some() {
            return Err(format!(
                "domain {}: fault plans are not lowered here",
                d.name
            ));
        }
        let telemetry = built.unit.telemetry().clone();
        let policy = TimedPolicy {
            inner: SiopmpPolicy::new(built.unit),
            ns: ns.clone(),
            decisions: decisions.clone(),
        };
        let mut spec = DomainSpec::for_policy(policy)
            .with_config(bus.clone())
            .with_telemetry(telemetry);
        if let Some((base, len)) = d.home {
            spec = spec.with_home_window(base, len);
        }
        for m in &d.masters {
            let [t] = m.programs.as_slice() else {
                return Err(format!(
                    "device {}: chained programs are not lowered here",
                    m.device
                ));
            };
            let (Mode::Stream { stride }, None) = (t.mode, m.retry) else {
                return Err(format!(
                    "device {}: only retry-free streams are lowered here",
                    m.device
                ));
            };
            let kind = match t.kind {
                Kind::Read => BurstKind::Read,
                Kind::Write => BurstKind::Write,
            };
            spec = spec.with_master(
                MasterProgram::streaming(m.device, kind, t.base, stride, t.count)
                    .with_outstanding(m.outstanding),
            );
        }
        psim.add_domain(spec);
    }
    Ok(psim)
}

/// Modelled mean issue→completion cycles per burst.
pub fn burst_lat_cycles(r: &SimReport) -> f64 {
    let total: u64 = r.masters.iter().map(|m| m.total_latency_cycles).sum();
    let done: usize = r.masters.iter().map(|m| m.bursts_completed).sum();
    total as f64 / done.max(1) as f64
}

/// Bursts of one simulation that did not move their data (masked,
/// bus-error, stalled or SID-missing): every burst is meant to be allowed.
pub fn failed_bursts(r: &SimReport) -> u64 {
    r.masters
        .iter()
        .map(|m| (m.bursts_completed - m.bursts_ok) as u64)
        .sum::<u64>()
        + u64::from(!r.completed) * SIM_BURSTS
}

/// Cross-domain bursts the engine exchanged.
pub fn cross_domain(psim: &ParallelSim) -> u64 {
    psim.telemetry()
        .counter("parallel.cross_domain_bursts")
        .get()
}

fn compile_fresh(s: &Scenario) -> Result<ParallelSim, String> {
    compile(s, &RunOptions::default()).map_err(|e| e.to_string())
}

/// Checks every simulation against the intended outcome: every burst
/// moves its data, every cross-domain burst is exchanged, and the report
/// is byte-identical to the first one (traced runs included).
#[derive(Default)]
struct SimCheck {
    reference: Option<String>,
}

impl SimCheck {
    fn check(&mut self, out: &mut Outcome, report: &SimReport, psim: &ParallelSim) {
        out.attempted += SIM_BURSTS;
        out.failed += failed_bursts(report);
        if cross_domain(psim) != DOMAINS * BURSTS as u64 {
            out.problems
                .push(format!("{} cross-domain bursts", cross_domain(psim)));
        }
        let json = report.to_json().to_string();
        match &self.reference {
            None => self.reference = Some(json),
            Some(r) if *r != json => out
                .problems
                .push("simulation report differs between runs".into()),
            Some(_) => {}
        }
    }
}

/// Runs windows of `SIMS_PER_WINDOW` freshly compiled simulations until
/// `seconds` pass. With `timed`, domains run under [`TimedPolicy`] and
/// the first simulation's unit counts are recorded into `out`. Returns
/// the windows and the last report with its cross-domain count.
fn sim_phase(
    scn: &Scenario,
    seconds: f64,
    timed: Option<(&Arc<AtomicU64>, &Arc<AtomicU64>)>,
    sims: &mut SimCheck,
    out: &mut Outcome,
) -> Result<(WindowStats, SimReport, u64), String> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut stats = WindowStats::default();
    let mut last = None;
    let mut counted = timed.is_none();
    while stats.windows() < MIN_WINDOWS || Instant::now() < deadline {
        let mut lat = Vec::with_capacity(SIMS_PER_WINDOW);
        let (done, _, slowdown) = probed_on(THREADS, || -> Result<(), String> {
            for _ in 0..SIMS_PER_WINDOW {
                let mut psim = match timed {
                    None => compile_fresh(scn)?,
                    Some((ns, decisions)) => compile_timed(scn, ns, decisions)?,
                };
                let before = psim.telemetry().snapshot().counters;
                let t = Instant::now();
                let report = psim.run(scn.run.max_cycles);
                lat.push(ns_since(t));
                sims.check(out, &report, &psim);
                if !counted {
                    // Counts repeat exactly for every simulation; take
                    // them from the first. Nothing mutates a unit during
                    // a simulation, so it publishes no snapshot.
                    let after = psim.telemetry().snapshot().counters;
                    record_unit_counts(&mut out.values, &[(before, after)], 0);
                    counted = true;
                }
                last = Some((report, cross_domain(&psim)));
            }
            Ok(())
        });
        done?;
        stats.push(Window {
            ops: SIMS_PER_WINDOW as u64 * SIM_BURSTS,
            elapsed: std::time::Duration::from_nanos(lat.iter().sum()),
            latencies_ns: lat,
            slowdown,
        });
    }
    let (report, cross) = last.expect("at least one simulation");
    Ok((stats, report, cross))
}

/// `dma_sim`: see the module docs.
///
/// # Errors
///
/// A generated scenario that fails to parse or compile.
pub fn dma_sim(cfg: &RunConfig) -> Result<Outcome, String> {
    let text = scenario_text(cfg.seed);
    let (setup_s, built) = median_setup(SETUP_REPS, || {
        let s = parse(&text).map_err(|e| e.to_string())?;
        compile_fresh(&s)?;
        Ok::<_, String>(s)
    });
    let scn = built?;
    let mut out = Outcome::default();
    let mut sims = SimCheck::default();

    let phase = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (stats, report, cross) = sim_phase(&scn, phase, None, &mut sims, &mut out)?;
    let windows = stats.windows() as u64;
    let v = &mut out.values;
    v.set("setup_s", setup_s, SETUP_REPS as u64);
    v.set("ops_per_s", stats.ops_per_s(), windows);
    v.set("lat_p50_us", stats.p50_us(), windows);
    v.set("lat_p99_us", stats.p99_us(), windows);
    let burst_lat = burst_lat_cycles(&report);
    out.notes.push(format!(
        "windows={windows} simulations_per_window={SIMS_PER_WINDOW} bursts_per_simulation={SIM_BURSTS} \
         threads={THREADS} latency_samples_per_window={SIMS_PER_WINDOW} (one whole simulation each: \
         the window p99 is its slowest simulation)"
    ));
    out.notes.push(stats.raw_note());
    out.notes.push(format!(
        "modelled: burst_lat_cycles={burst_lat} sim.cycles={} cross_domain_bursts={cross}",
        report.cycles
    ));

    if cfg.trace {
        let v = &mut out.values;
        let completed: u64 = report
            .masters
            .iter()
            .map(|m| m.bursts_completed as u64)
            .sum();
        v.set("burst_lat_cycles", burst_lat, completed);
        v.set("sim.cycles", report.cycles as f64, 1);
        v.set("bus.cross_domain_bursts", cross as f64, 1);
        let burst_ns = 1e9 / median(&stats.raw_ops_per_s);
        v.set("bus.host_ns_per_burst", burst_ns, windows);
        v.set(
            "bus.host_ns_per_cycle",
            burst_ns * SIM_BURSTS as f64 / report.cycles as f64,
            windows,
        );
        let cycles = siopmp_scenario::compile::siopmp_config(&scn.unit)
            .checker
            .extra_cycles();
        v.set("check.model_cycles", f64::from(cycles), SIM_BURSTS);

        // Traced simulations: every policy call timed from outside.
        let ns = Arc::new(AtomicU64::new(0));
        let decisions = Arc::new(AtomicU64::new(0));
        let (traced, ..) = sim_phase(&scn, phase, Some((&ns, &decisions)), &mut sims, &mut out)?;
        let v = &mut out.values;
        let d = decisions.load(Ordering::Relaxed);
        let policy_ns = ns.load(Ordering::Relaxed) as f64 / d.max(1) as f64;
        v.set("bus.policy_ns_per_burst", policy_ns, d);
        v.set("check.host_ns", policy_ns, d);
        let tw = traced.windows() as u64;
        v.set("trace.untraced_ops_per_s", stats.ops_per_s(), windows);
        v.set("trace.traced_ops_per_s", traced.ops_per_s(), tw);
        v.set(
            "trace.overhead_frac",
            1.0 - traced.ops_per_s() / stats.ops_per_s(),
            tw,
        );

        let t = Instant::now();
        let s = parse(&text).map_err(|e| e.to_string())?;
        v.set("setup.parse_ms", t.elapsed().as_secs_f64() * 1e3, 1);
        let t = Instant::now();
        compile_fresh(&s)?;
        v.set("setup.compile_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    }
    out.values.set("peak_rss_mb", peak_rss_mb(), 1);
    Ok(out)
}

/// Runs one simulation of `seed`'s scenario at `threads`, for tests.
///
/// # Errors
///
/// Parse or compile errors.
pub fn simulate(seed: u64, threads: usize) -> Result<(SimReport, u64, Values), String> {
    let s = parse(&scenario_text(seed)).map_err(|e| e.to_string())?;
    let mut psim = compile(
        &s,
        &RunOptions {
            seed: None,
            threads: Some(threads),
        },
    )
    .map_err(|e| e.to_string())?;
    let before = psim.telemetry().snapshot().counters;
    let report = psim.run(s.run.max_cycles);
    let after = psim.telemetry().snapshot().counters;
    let mut values = Values::default();
    record_unit_counts(&mut values, &[(before, after)], 0);
    Ok((report, cross_domain(&psim), values))
}
