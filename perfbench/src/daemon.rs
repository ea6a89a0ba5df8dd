//! `daemon_wire`: the admission daemon from wire frame to verdict frame.
//!
//! The committed fleet is loaded exactly as `siopmp-serviced serve
//! --fleet corpus/` loads it (`Fleet::load_dir`, an empty
//! `verify_errors`, `Serviced::start`), with an in-memory journal so no
//! disk flush is timed. One client pushes pre-encoded frames through
//! `read_frame` → `parse_request` → `Serviced::handle` →
//! `Json::to_string` → `write_frame` and waits for each verdict, as the
//! single-connection `serve` loop does. No socket: a round trip on two
//! shared cores would time kernel wake-ups, not the daemon.
//!
//! The benchmark advances the virtual clock two ticks before every
//! check, so the modelled load stays at half the single worker's
//! capacity and every admission is deterministic.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use siopmp::ids::DeviceId;
use siopmp::json::Json;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp_serviced::proto::{parse_request, read_frame, write_frame, Request};
use siopmp_serviced::{Fleet, Serviced, ServicedConfig};
use siopmp_testkit::Rng;
use siopmp_verify::{analyze, Predicted, Report};

use crate::measure::{median, median_setup, ns_since, peak_rss_mb, Window, WindowStats};
use crate::report::{Outcome, Values};
use crate::{record_unit_counts, Counters, RunConfig};

/// Frames per pass (one window).
pub const PASS_FRAMES: usize = 32_768;
/// One frame in `SWITCH_EVERY` is a `switch`.
const SWITCH_EVERY: usize = 256;
/// Virtual ticks the benchmark advances before each check.
const TICKS_PER_CHECK: u64 = 2;
/// Share of checks from the tenant's mounted cold device, when it has one.
const COLD_SHARE: f64 = 0.125;
/// Share of checks aimed outside every entry.
const DENY_SHARE: f64 = 0.05;
/// Fresh set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Draws allowed per check frame before the fleet is declared unusable
/// (every device blocked or unmounted).
const MAX_DRAWS: usize = 10_000;
/// Windows measured at least, whatever the time budget.
const MIN_WINDOWS: usize = 5;

/// The verdict class a generator intends for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `"verdict":"allowed"`.
    Allowed,
    /// `"verdict":"denied"`.
    Denied,
    /// `"verdict":"switched"`.
    Switched,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Allowed => "allowed",
            Class::Denied => "denied",
            Class::Switched => "switched",
        }
    }
}

/// The `daemon_wire` inputs: encoded frames and what each must answer.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameStream {
    /// Switch frames sent once after set-up: every tenant with cold
    /// devices mounts its first one. Each pass ends in this state again.
    pub prologue: Vec<u8>,
    /// Frames of the prologue.
    pub prologue_frames: usize,
    /// One pass of `PASS_FRAMES` frames.
    pub pass: Vec<u8>,
    /// Intended verdict class of each pass frame.
    pub classes: Vec<Class>,
    /// Mean `CheckerKind::extra_cycles` over the pass's checks.
    pub model_cycles: f64,
}

fn encode(buf: &mut Vec<u8>, text: &str) {
    let len = u32::try_from(text.len()).expect("frame fits u32");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(text.as_bytes());
}

/// Oracle for one tenant: the analyzer's reports of its unit with each
/// mountable cold device mounted (analyzed lazily, then cached).
struct TenantOracle {
    name: String,
    unit: siopmp::Siopmp,
    hot: Vec<(u64, siopmp::ids::SourceId)>,
    /// Cold devices whose switch succeeds.
    cold: Vec<u64>,
    reports: BTreeMap<Option<u64>, Report>,
}

impl TenantOracle {
    fn report(&mut self, mounted: Option<u64>) -> &Report {
        let unit = &self.unit;
        self.reports.entry(mounted).or_insert_with(|| {
            let mut u = unit.clone();
            if let Some(c) = mounted {
                u.handle_sid_missing(DeviceId(c))
                    .expect("only mountable devices are kept");
            }
            analyze(&u, None)
        })
    }
}

impl FrameStream {
    /// Generates the frames for `seed` over `fleet`. The intended class
    /// of each check is the static analyzer's prediction for the unit
    /// state the frame will meet (`siopmp_verify::Report::predict`),
    /// which is independent of the checker under test.
    ///
    /// # Errors
    ///
    /// A fleet with no tenant a check can be aimed at.
    pub fn generate(seed: u64, fleet: &Fleet) -> Result<FrameStream, String> {
        let mut rng = Rng::seed_from_u64(seed ^ 0xDAE0_0001);
        let mut oracles: Vec<TenantOracle> = fleet
            .tenants()
            .iter()
            .map(|t| TenantOracle {
                name: t.name.clone(),
                unit: t.unit.clone(),
                hot: t.hot.clone(),
                cold: t
                    .cold
                    .iter()
                    .copied()
                    .filter(|&c| t.unit.clone().handle_sid_missing(DeviceId(c)).is_ok())
                    .collect(),
                reports: BTreeMap::new(),
            })
            .collect();
        let cold_tenants: Vec<usize> = (0..oracles.len())
            .filter(|&i| !oracles[i].cold.is_empty())
            .collect();
        let check_tenants: Vec<usize> = (0..oracles.len())
            .filter(|&i| !oracles[i].hot.is_empty() || !oracles[i].cold.is_empty())
            .collect();
        if check_tenants.is_empty() {
            return Err("the fleet has no device a check could name".into());
        }
        let switch_slots = PASS_FRAMES / SWITCH_EVERY;
        if cold_tenants.len() > switch_slots {
            return Err(format!(
                "{} cold tenants exceed {switch_slots} switch slots",
                cold_tenants.len()
            ));
        }

        // Prologue: mount every cold tenant's first device.
        let mut mounted: Vec<Option<u64>> = vec![None; oracles.len()];
        let mut prologue = Vec::new();
        for &t in &cold_tenants {
            let c = oracles[t].cold[0];
            encode(
                &mut prologue,
                &format!("switch tenant={} device={c}", oracles[t].name),
            );
            mounted[t] = Some(c);
        }
        let home = mounted.clone();

        let mut pass = Vec::with_capacity(PASS_FRAMES * 80);
        let mut classes = Vec::with_capacity(PASS_FRAMES);
        let mut cycles = 0u64;
        let mut checks = 0u64;
        for i in 0..PASS_FRAMES {
            if i % SWITCH_EVERY == SWITCH_EVERY - 1 {
                let slot = i / SWITCH_EVERY;
                // The last slots send every cold tenant home, in order.
                let restore_from = switch_slots - cold_tenants.len();
                let (t, c) = if slot >= restore_from {
                    let t = cold_tenants[slot - restore_from];
                    (t, home[t].expect("cold tenants mount at prologue"))
                } else {
                    let t = *rng.choose(&cold_tenants);
                    let o = &oracles[t];
                    let others: Vec<u64> = o
                        .cold
                        .iter()
                        .copied()
                        .filter(|&c| Some(c) != mounted[t])
                        .collect();
                    (
                        t,
                        if others.is_empty() {
                            o.cold[0]
                        } else {
                            *rng.choose(&others)
                        },
                    )
                };
                encode(
                    &mut pass,
                    &format!("switch tenant={} device={c}", oracles[t].name),
                );
                mounted[t] = Some(c);
                classes.push(Class::Switched);
                continue;
            }
            let (t, text, class) = (0..MAX_DRAWS)
                .find_map(|_| {
                    let t = *rng.choose(&check_tenants);
                    gen_check(&mut rng, &mut oracles[t], mounted[t]).map(|(x, c)| (t, x, c))
                })
                .ok_or("no tenant yields an allowed or denied check")?;
            encode(&mut pass, &text);
            classes.push(class);
            cycles += u64::from(oracles[t].unit.config().checker.extra_cycles());
            checks += 1;
        }
        debug_assert_eq!(mounted, home, "every pass ends where it began");
        Ok(FrameStream {
            prologue_frames: cold_tenants.len(),
            prologue,
            pass,
            classes,
            model_cycles: cycles as f64 / checks.max(1) as f64,
        })
    }

    /// Whether pass frame `i` is a check (the clock advances before it).
    pub fn is_check(&self, i: usize) -> bool {
        self.classes[i] != Class::Switched
    }
}

/// One check frame for tenant `o` in mount state `mounted`, with its
/// predicted class; `None` when the draw hit a blocked or unmounted
/// device (the stream only carries allowed and denied checks).
fn gen_check(rng: &mut Rng, o: &mut TenantOracle, mounted: Option<u64>) -> Option<(String, Class)> {
    let cold_sid = o.unit.config().cold_sid();
    let (device, sid) = match mounted {
        Some(c) if o.hot.is_empty() || rng.gen_bool(COLD_SHARE) => (c, cold_sid),
        _ if o.hot.is_empty() => return None,
        _ => *rng.choose(&o.hot),
    };
    let kind = if rng.gen_bool(0.5) {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    let name = o.name.clone();
    let report = o.report(mounted);
    let visible = &report.view(sid)?.visible;
    let (addr, len) = if visible.is_empty() || rng.gen_bool(DENY_SHARE) {
        (0xDEAD_0000_0000 + rng.gen_range(0..1 << 20) * 64, 64)
    } else {
        let range = rng.choose(visible).1.range();
        let len = range.len().min(64);
        (range.base() + rng.gen_range(0..range.len() - len + 1), len)
    };
    let class = match report.predict(DeviceId(device), kind, addr, len) {
        Predicted::Allowed { .. } => Class::Allowed,
        Predicted::DeniedNoMatch | Predicted::DeniedPermission { .. } => Class::Denied,
        Predicted::Stalled | Predicted::SidMissing => return None,
    };
    let kind = match kind {
        AccessKind::Read => "read",
        AccessKind::Write => "write",
    };
    Some((
        format!("check tenant={name} device={device} kind={kind} addr={addr:#x} len={len}"),
        class,
    ))
}

/// Loads and starts the daemon as `serve --fleet` does.
///
/// # Errors
///
/// Fleet load errors, analyzer errors in any tenant, or start errors.
pub fn start(corpus: &Path) -> Result<Serviced, String> {
    let fleet = Fleet::load_dir(corpus).map_err(|e| e.to_string())?;
    let bad = fleet.verify_errors();
    if !bad.is_empty() {
        let names: Vec<&str> = bad.iter().map(|(n, _)| n.as_str()).collect();
        return Err(format!("static analyzer errors in {}", names.join(", ")));
    }
    Serviced::start(fleet, None, ServicedConfig::default()).map_err(|e| e.to_string())
}

/// The verdict of one encoded response frame.
fn verdict(frame: &str) -> &str {
    frame
        .strip_prefix("{\"verdict\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// Counts the responses in `sink` that do not carry the intended class
/// (errors, sheds, stalls, missing frames and wrong verdicts alike).
pub fn count_mismatches(sink: &[u8], classes: &[Class]) -> u64 {
    let mut cursor = Cursor::new(sink);
    let mut failed = 0;
    for class in classes {
        match read_frame(&mut cursor) {
            Ok(Some(frame)) if verdict(&frame) == class.label() => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Per-step host time of a traced pass, in ns summed over frames.
#[derive(Debug, Default)]
struct WireTrace {
    frames: u64,
    checks: u64,
    read_ns: u64,
    parse_ns: u64,
    handle_check_ns: u64,
    encode_ns: u64,
    write_ns: u64,
    bare_check_ns: u64,
    switch_us: Vec<f64>,
}

/// Sends frames from `bytes` (`n` of them) and collects the responses in
/// `sink`. Check frames are preceded by a clock advance; the latency of
/// each frame is wire bytes in → response bytes out.
fn send(
    daemon: &mut Serviced,
    bytes: &[u8],
    n: usize,
    is_check: impl Fn(usize) -> bool,
    sink: &mut Vec<u8>,
    mut trace: Option<&mut WireTrace>,
) -> Window {
    let mut cursor = Cursor::new(bytes);
    sink.clear();
    Window::measure(|| {
        let mut lat = Vec::with_capacity(n);
        for i in 0..n {
            if is_check(i) {
                daemon.advance(TICKS_PER_CHECK);
            }
            let t0 = Instant::now();
            let Ok(Some(line)) = read_frame(&mut cursor) else {
                break;
            };
            let Some(tr) = trace.as_deref_mut() else {
                let response = match parse_request(&line) {
                    Ok(req) => daemon.handle(&req),
                    Err(e) => {
                        Json::object([("verdict", Json::str("error")), ("error", Json::str(e))])
                    }
                };
                let _ = write_frame(sink, &response.to_string());
                lat.push(ns_since(t0));
                continue;
            };
            let t1 = Instant::now();
            let parsed = parse_request(&line);
            let t2 = Instant::now();
            let response = match &parsed {
                Ok(req) => daemon.handle(req),
                Err(e) => Json::object([
                    ("verdict", Json::str("error")),
                    ("error", Json::str(e.clone())),
                ]),
            };
            let t3 = Instant::now();
            let text = response.to_string();
            let t4 = Instant::now();
            let _ = write_frame(sink, &text);
            let t5 = Instant::now();
            lat.push(u64::try_from((t5 - t0).as_nanos()).unwrap_or(u64::MAX));
            let ns = |a: Instant, b: Instant| u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX);
            tr.frames += 1;
            tr.read_ns += ns(t0, t1);
            tr.parse_ns += ns(t1, t2);
            tr.encode_ns += ns(t3, t4);
            tr.write_ns += ns(t4, t5);
            match parsed {
                Ok(Request::Check {
                    tenant,
                    device,
                    kind,
                    addr,
                    len,
                    ..
                }) => {
                    tr.checks += 1;
                    tr.handle_check_ns += ns(t2, t3);
                    // The tenant's checker alone, on the same request.
                    let idx = daemon
                        .fleet()
                        .index_of(&tenant)
                        .expect("generated tenants exist");
                    let shared = &daemon.fleet().tenants()[idx].shared;
                    let dma = DmaRequest::new(device, kind, addr, len);
                    let t6 = Instant::now();
                    std::hint::black_box(shared.check(std::hint::black_box(&dma)));
                    tr.bare_check_ns += ns_since(t6);
                }
                Ok(Request::Switch { .. }) => tr.switch_us.push(ns(t2, t3) as f64 / 1e3),
                _ => {}
            }
        }
        (n as u64, lat)
    })
}

/// Runs passes until `seconds` pass; returns the windows and the failed
/// frames.
fn wire_phase(
    daemon: &mut Serviced,
    input: &FrameStream,
    seconds: f64,
    mut trace: Option<&mut WireTrace>,
) -> (WindowStats, u64) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut stats = WindowStats::default();
    let mut sink = Vec::with_capacity(PASS_FRAMES * 128);
    let mut failed = 0;
    while stats.windows() < MIN_WINDOWS || Instant::now() < deadline {
        let w = send(
            daemon,
            &input.pass,
            PASS_FRAMES,
            |i| input.is_check(i),
            &mut sink,
            trace.as_deref_mut(),
        );
        failed += count_mismatches(&sink, &input.classes);
        stats.push(w);
    }
    (stats, failed)
}

/// Sends the prologue (all `switch` frames); returns the failed frames.
fn prologue(daemon: &mut Serviced, input: &FrameStream) -> u64 {
    let mut sink = Vec::new();
    send(
        daemon,
        &input.prologue,
        input.prologue_frames,
        |_| false,
        &mut sink,
        None,
    );
    count_mismatches(&sink, &vec![Class::Switched; input.prologue_frames])
}

/// `daemon_wire`: see the module docs.
///
/// # Errors
///
/// A fleet that fails to load, lint or start, or frames that cannot be
/// generated over it.
pub fn daemon_wire(cfg: &RunConfig) -> Result<Outcome, String> {
    let oracle_fleet = Fleet::load_dir(&cfg.corpus).map_err(|e| e.to_string())?;
    let input = FrameStream::generate(cfg.seed, &oracle_fleet)?;
    drop(oracle_fleet);
    let (setup_s, daemon) = median_setup(SETUP_REPS, || start(&cfg.corpus));
    let mut daemon = daemon?;
    let mut out = Outcome::default();

    out.failed += prologue(&mut daemon, &input);
    out.attempted += input.prologue_frames as u64;
    let mut sink = Vec::new();
    send(
        &mut daemon,
        &input.pass,
        PASS_FRAMES,
        |i| input.is_check(i),
        &mut sink,
        None,
    );
    out.failed += count_mismatches(&sink, &input.classes);
    out.attempted += PASS_FRAMES as u64;

    let phase = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (stats, failed) = wire_phase(&mut daemon, &input, phase, None);
    out.attempted += stats.ops;
    out.failed += failed;
    let windows = stats.windows() as u64;
    let v = &mut out.values;
    v.set("setup_s", setup_s, SETUP_REPS as u64);
    v.set("ops_per_s", stats.ops_per_s(), windows);
    v.set("lat_p50_us", stats.p50_us(), windows);
    v.set("lat_p99_us", stats.p99_us(), windows);
    out.notes.push(format!(
        "tenants={} windows={windows} frames_per_window={PASS_FRAMES} \
         latency_samples_per_window={} (one frame each) switch_every={SWITCH_EVERY}",
        daemon.fleet().tenants().len(),
        stats.samples_per_window
    ));
    out.notes.push(stats.raw_note());

    if cfg.trace {
        let mut tr = WireTrace::default();
        let (tstats, failed) = wire_phase(&mut daemon, &input, phase, Some(&mut tr));
        out.attempted += tstats.ops;
        out.failed += failed;
        let v = &mut out.values;
        let tw = tstats.windows() as u64;
        v.set("trace.untraced_ops_per_s", stats.ops_per_s(), windows);
        v.set("trace.traced_ops_per_s", tstats.ops_per_s(), tw);
        v.set(
            "trace.overhead_frac",
            1.0 - tstats.ops_per_s() / stats.ops_per_s(),
            tw,
        );
        let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
        v.set("proto.read_frame_ns", per(tr.read_ns, tr.frames), tr.frames);
        v.set("proto.parse_ns", per(tr.parse_ns, tr.frames), tr.frames);
        v.set(
            "proto.write_frame_ns",
            per(tr.write_ns, tr.frames),
            tr.frames,
        );
        v.set("json.encode_ns", per(tr.encode_ns, tr.frames), tr.frames);
        v.set(
            "daemon.handle_ns",
            per(tr.handle_check_ns, tr.checks),
            tr.checks,
        );
        v.set(
            "daemon.bare_check_ns",
            per(tr.bare_check_ns, tr.checks),
            tr.checks,
        );
        v.set("check.host_ns", per(tr.bare_check_ns, tr.checks), tr.checks);
        v.set("check.model_cycles", input.model_cycles, tr.checks);
        if !tr.switch_us.is_empty() {
            v.set(
                "daemon.switch_us",
                median(&tr.switch_us),
                tr.switch_us.len() as u64,
            );
        }
        set_up_steps(&cfg.corpus, v)?;
        let (failed, attempted) = wire_count_pass(&cfg.corpus, &input, v)?;
        out.failed += failed;
        out.attempted += attempted;
    }
    out.values.set("peak_rss_mb", peak_rss_mb(), 1);
    Ok(out)
}

/// Times each set-up step once: parse, compile, verify, start.
fn set_up_steps(corpus: &Path, v: &mut Values) -> Result<(), String> {
    let t = Instant::now();
    let mut paths: Vec<_> = std::fs::read_dir(corpus)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    let mut parsed = Vec::new();
    for p in &paths {
        let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
        let stem = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        parsed.push((
            stem,
            siopmp_scenario::parse(&text).map_err(|e| e.to_string())?,
        ));
    }
    v.set(
        "setup.parse_ms",
        t.elapsed().as_secs_f64() * 1e3,
        paths.len() as u64,
    );
    let t = Instant::now();
    let fleet = Fleet::from_scenarios(parsed.iter().map(|(stem, s)| (stem.as_str(), None, s)))
        .map_err(|e| e.to_string())?;
    v.set(
        "setup.compile_ms",
        t.elapsed().as_secs_f64() * 1e3,
        paths.len() as u64,
    );
    let t = Instant::now();
    let bad = fleet.verify_errors().len();
    v.set(
        "setup.verify_ms",
        t.elapsed().as_secs_f64() * 1e3,
        fleet.tenants().len() as u64,
    );
    if bad > 0 {
        return Err(format!("{bad} tenants have analyzer errors"));
    }
    let t = Instant::now();
    Serviced::start(fleet, None, ServicedConfig::default()).map_err(|e| e.to_string())?;
    v.set("setup.start_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    Ok(())
}

/// The deterministic count pass: a fresh daemon, the prologue, one warm
/// pass, then one counted pass. Returns (failed, attempted) frames.
pub fn wire_count_pass(
    corpus: &Path,
    input: &FrameStream,
    v: &mut Values,
) -> Result<(u64, u64), String> {
    let mut daemon = start(corpus)?;
    let mut failed = prologue(&mut daemon, input);
    let mut sink = Vec::new();
    send(
        &mut daemon,
        &input.pass,
        PASS_FRAMES,
        |i| input.is_check(i),
        &mut sink,
        None,
    );
    failed += count_mismatches(&sink, &input.classes);
    let units = |d: &Serviced| -> Vec<(Counters, u64)> {
        d.fleet()
            .tenants()
            .iter()
            .map(|t| {
                (
                    t.unit.telemetry().snapshot().counters,
                    t.shared.generation(),
                )
            })
            .collect()
    };
    let before = units(&daemon);
    let served0 = daemon.telemetry().snapshot().counters;
    send(
        &mut daemon,
        &input.pass,
        PASS_FRAMES,
        |i| input.is_check(i),
        &mut sink,
        None,
    );
    failed += count_mismatches(&sink, &input.classes);
    let after = units(&daemon);
    let served1 = daemon.telemetry().snapshot().counters;
    let publishes: u64 = before.iter().zip(&after).map(|(b, a)| a.1 - b.1).sum();
    let pairs: Vec<_> = before
        .into_iter()
        .zip(after)
        .map(|(b, a)| (b.0, a.0))
        .collect();
    record_unit_counts(v, &pairs, publishes);
    let served = |name: &str| {
        served1.get(name).copied().unwrap_or(0) - served0.get(name).copied().unwrap_or(0)
    };
    let n = PASS_FRAMES as u64;
    v.set(
        "daemon.allowed",
        served("siopmp.serviced.allowed") as f64,
        n,
    );
    v.set("daemon.denied", served("siopmp.serviced.denied") as f64, n);
    v.set("daemon.shed", served("siopmp.serviced.shed") as f64, n);
    v.set(
        "daemon.switches",
        served("siopmp.serviced.switches") as f64,
        n,
    );
    Ok((failed, input.prologue_frames as u64 + 2 * n))
}
