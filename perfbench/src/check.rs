//! The device read path at the paper's headline scale: `check_stream`
//! (a reader thread on a warm decision cache) and `check_churn` (one
//! thread, writes beside reads, so the snapshot is republished every few
//! checks).
//!
//! Both run one `SiopmpConfig::default()` unit — 1024 entries, 1024
//! decision slots — with 16 hot devices holding 1016 single-page entries
//! between them: the 1024-entry table less the 8 entries the default
//! configuration reserves for the cold memory domain, so the working set
//! fills the decision cache. `check_churn` adds 64 registered cold
//! devices that take turns at the eSID.

use std::time::Instant;

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, EntryIndex, MdIndex, SourceId};
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::telemetry::Counter;
use siopmp::{CheckOutcome, Siopmp, SiopmpConfig};
use siopmp_testkit::Rng;

use crate::measure::{median, median_setup, ns_since, peak_rss_mb, Window, WindowStats};
use crate::report::{Outcome, Values};
use crate::{record_unit_counts, RunConfig};

/// Hot devices in the unit.
pub const HOT_DEVICES: usize = 16;
/// Registered cold devices (`check_churn`).
pub const COLD_DEVICES: usize = 64;
/// Reader threads of `check_stream`. One: with two readers on the
/// two-core development host, throughput flipped between about 5 M and
/// 18 M beats/s for minutes at a time as the host placed the two vCPUs
/// near or far from each other (the readers share the unit's counter
/// lines), which no in-run statistic can steady.
pub const READERS: usize = 1;
/// Beats per burst (64 B each: one 4 KiB page per burst).
pub const BEATS: usize = 64;
const PAGE: u64 = 4096;
const BEAT_BYTES: u64 = 64;
/// Page slots in each hot device's region; the ones without an entry
/// are the gaps `check_churn` aims its denials at.
const REGION_PAGES: u64 = 128;
/// Hot entries: the 1024-entry table less the cold domain's reserve.
const HOT_ENTRIES: usize = 1016;
/// Entries per cold record (at most the cold window of 8).
const MAX_COLD_RECORD: u64 = 8;
/// `check_stream`: bursts per reader per window.
const STREAM_WINDOW_BURSTS: usize = 4096;
/// `check_churn`: checks per window (one pass of the program).
const CHURN_CHECKS: usize = 32_768;
/// `check_churn`: one write after every `CHURN_K` checks.
const CHURN_K: usize = 16;
/// Share of `check_churn` checks aimed outside every entry.
const DENY_SHARE: f64 = 0.06;
/// Share of `check_churn` checks from the mounted cold device.
const COLD_SHARE: f64 = 0.125;
/// Fresh set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Windows measured at least, whatever the time budget.
const MIN_WINDOWS: usize = 5;

/// The verdict a generator intends for one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Allowed by exactly this entry, for exactly this SID.
    Allowed {
        /// Winning entry.
        matched: EntryIndex,
        /// SID the device resolves to.
        sid: SourceId,
    },
    /// Denied (no entry contains the access).
    Denied,
}

impl Expect {
    /// Whether `out` is the intended verdict.
    pub fn holds(&self, out: &CheckOutcome) -> bool {
        match (self, out) {
            (Expect::Allowed { matched, sid }, CheckOutcome::Allowed { matched: m, sid: s }) => {
                matched == m && sid == s
            }
            (Expect::Denied, CheckOutcome::Denied(_)) => true,
            _ => false,
        }
    }
}

/// One hot device: its SID, its entry window and its pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotDevice {
    /// Device ID.
    pub id: DeviceId,
    /// SID the CAM assigns (declaration order).
    pub sid: SourceId,
    /// Memory domain holding its entries.
    pub md: MdIndex,
    /// First entry index of the domain's window.
    pub window_start: u32,
    /// Page bases in install order; page `k` is entry `window_start + k`.
    pub pages: Vec<u64>,
    /// Page bases in the device's region that no entry covers.
    pub gaps: Vec<u64>,
}

/// One cold device and the pages its extended-table record grants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdDevice {
    /// Device ID.
    pub id: DeviceId,
    /// Record pages; page `k` loads into cold-window entry `k`.
    pub pages: Vec<u64>,
}

/// The seeded unit layout shared by both check workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Hot devices, SID order.
    pub hot: Vec<HotDevice>,
    /// Cold devices.
    pub cold: Vec<ColdDevice>,
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_usize(0..i + 1);
        v.swap(i, j);
    }
}

impl Layout {
    /// Draws the page placement of every device from `rng`.
    pub fn generate(rng: &mut Rng) -> Layout {
        let mut start = 0u32;
        let hot = (0..HOT_DEVICES)
            .map(|i| {
                // 1016 entries over 16 devices: the first 8 hold 64.
                let n = HOT_ENTRIES / HOT_DEVICES + usize::from(i < HOT_ENTRIES % HOT_DEVICES);
                let base = 0x1_0000_0000 + i as u64 * 0x100_0000;
                let mut slots: Vec<u64> = (0..REGION_PAGES).collect();
                shuffle(rng, &mut slots);
                let page = |s: &u64| base + s * PAGE;
                let dev = HotDevice {
                    id: DeviceId(0x100 + i as u64),
                    sid: SourceId(i as u16),
                    md: MdIndex(i as u16),
                    window_start: start,
                    pages: slots[..n].iter().map(page).collect(),
                    gaps: slots[n..].iter().map(page).collect(),
                };
                start += n as u32;
                dev
            })
            .collect();
        let cold = (0..COLD_DEVICES)
            .map(|j| {
                let base = 0x2_0000_0000 + j as u64 * 0x10_0000;
                let n = rng.gen_range(1..MAX_COLD_RECORD + 1) as usize;
                let mut slots: Vec<u64> = (0..32).collect();
                shuffle(rng, &mut slots);
                ColdDevice {
                    id: DeviceId(0x1000 + j as u64),
                    pages: slots[..n].iter().map(|s| base + s * PAGE).collect(),
                }
            })
            .collect();
        Layout { hot, cold }
    }

    /// Builds the unit: repartitions the MDCFG so domain `i` holds device
    /// `i`'s pages, maps every hot device, installs one read-write entry
    /// per page and (with `with_cold`) registers the cold devices.
    ///
    /// # Errors
    ///
    /// Any mutator error, or an entry landing at another index than the
    /// layout predicts (the expected verdicts would then be wrong).
    pub fn build(&self, with_cold: bool) -> Result<Siopmp, String> {
        let cfg = SiopmpConfig::default();
        let hot_mds = cfg.num_mds - 1;
        let mut unit = Siopmp::build(cfg, None);
        // Raise tops from the last hot domain down so every write keeps
        // the MDCFG monotone.
        for md in (0..hot_mds).rev() {
            let top = match self.hot.get(md) {
                Some(d) => d.window_start + d.pages.len() as u32,
                None => HOT_ENTRIES as u32,
            };
            unit.set_md_top(MdIndex(md as u16), top)
                .map_err(|e| format!("md {md} top {top}: {e}"))?;
        }
        for d in &self.hot {
            let sid = unit.map_hot_device(d.id).map_err(|e| e.to_string())?;
            if sid != d.sid {
                return Err(format!(
                    "device {:?} got {sid:?}, layout says {:?}",
                    d.id, d.sid
                ));
            }
            unit.associate_sid_with_md(sid, d.md)
                .map_err(|e| e.to_string())?;
            for (k, &page) in d.pages.iter().enumerate() {
                let idx = unit
                    .install_entry(d.md, page_entry(page, Permissions::rw()))
                    .map_err(|e| e.to_string())?;
                if idx.0 != d.window_start + k as u32 {
                    return Err(format!("page {page:#x} landed at entry {}", idx.0));
                }
            }
        }
        if with_cold {
            for c in &self.cold {
                let record = MountableEntry {
                    domains: Vec::new(),
                    entries: c
                        .pages
                        .iter()
                        .map(|&p| page_entry(p, Permissions::rw()))
                        .collect(),
                };
                unit.register_cold_device(c.id, record)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(unit)
    }
}

fn page_entry(page: u64, perms: Permissions) -> IopmpEntry {
    IopmpEntry::new(
        AddressRange::new(page, PAGE).expect("page-aligned 4 KiB range"),
        perms,
    )
}

/// One burst of `check_stream`: 64 beats of one page, and the verdict
/// every beat must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Burst {
    /// The beats.
    pub beats: Vec<DmaRequest>,
    /// Their intended verdict.
    pub expect: Expect,
}

/// `check_stream` inputs: the layout and each reader's ring of bursts
/// (its 8 devices' pages in a seeded ring order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInput {
    /// Unit layout.
    pub layout: Layout,
    /// One ring per reader.
    pub rings: Vec<Vec<Burst>>,
}

impl StreamInput {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> StreamInput {
        let mut rng = Rng::seed_from_u64(seed);
        let layout = Layout::generate(&mut rng);
        let rings = (0..READERS)
            .map(|r| {
                let mut ring: Vec<Burst> = layout
                    .hot
                    .iter()
                    .skip(r)
                    .step_by(READERS)
                    .flat_map(|d| {
                        d.pages.iter().enumerate().map(move |(k, &page)| Burst {
                            beats: (0..BEATS as u64)
                                .map(|b| {
                                    DmaRequest::new(
                                        d.id,
                                        AccessKind::Read,
                                        page + b * BEAT_BYTES,
                                        BEAT_BYTES,
                                    )
                                })
                                .collect(),
                            expect: Expect::Allowed {
                                matched: EntryIndex(d.window_start + k as u32),
                                sid: d.sid,
                            },
                        })
                    })
                    .collect();
                shuffle(&mut rng, &mut ring);
                ring
            })
            .collect();
        StreamInput { layout, rings }
    }
}

/// Checks one burst through `check_batch`; returns the beats whose
/// verdict was not the intended one.
fn stream_burst(shared: &siopmp::SharedSiopmp, burst: &Burst) -> u64 {
    let outs = shared.check_batch(std::hint::black_box(&burst.beats));
    outs.iter().filter(|o| !burst.expect.holds(o)).count() as u64
}

/// One reader's measured windows: each window is a fixed number of
/// bursts; a traced reader also keeps a span (start offset, duration,
/// cache-counter delta) per burst.
fn stream_reader(
    shared: &siopmp::SharedSiopmp,
    ring: &[Burst],
    deadline: Instant,
    traced: Option<&(Counter, Counter)>,
) -> (WindowStats, u64, Vec<(u64, u64, u64)>) {
    let mut stats = WindowStats::default();
    let mut failed = 0;
    let mut spans = Vec::new();
    let origin = Instant::now();
    let mut pos = 0;
    while stats.windows() < MIN_WINDOWS || Instant::now() < deadline {
        stats.push(Window::measure(|| {
            let mut lat = Vec::with_capacity(STREAM_WINDOW_BURSTS);
            for _ in 0..STREAM_WINDOW_BURSTS {
                let burst = &ring[pos];
                pos = (pos + 1) % ring.len();
                match traced {
                    None => {
                        let t = Instant::now();
                        failed += stream_burst(shared, burst);
                        lat.push(ns_since(t));
                    }
                    Some((hits, misses)) => {
                        let (h0, m0) = (hits.get(), misses.get());
                        let t = Instant::now();
                        failed += stream_burst(shared, burst);
                        let ns = ns_since(t);
                        lat.push(ns);
                        let begin = u64::try_from((t - origin).as_nanos()).unwrap_or(u64::MAX);
                        spans.push((begin, ns, (hits.get() - h0) + (misses.get() - m0)));
                    }
                }
            }
            ((STREAM_WINDOW_BURSTS * BEATS) as u64, lat)
        }));
    }
    (stats, failed, spans)
}

/// Runs every reader concurrently until `seconds` pass; the owner stays
/// idle. Throughput is the sum of the readers' median window rates.
fn stream_phase(
    unit: &Siopmp,
    input: &StreamInput,
    seconds: f64,
    traced: bool,
) -> (f64, WindowStats, u64, u64) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let counters = traced.then(|| {
        (
            unit.telemetry().counter("siopmp.cache.hits"),
            unit.telemetry().counter("siopmp.cache.misses"),
        )
    });
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = input
            .rings
            .iter()
            .map(|ring| {
                let shared = unit.share();
                let counters = counters.as_ref();
                s.spawn(move || stream_reader(&shared, ring, deadline, counters))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let mut all = WindowStats::default();
    let mut ops_per_s = 0.0;
    let mut failed = 0;
    let mut spans = 0;
    for (stats, f, sp) in results {
        ops_per_s += stats.ops_per_s();
        failed += f;
        spans += sp.len() as u64;
        all.merge(stats);
    }
    (ops_per_s, all, failed, spans)
}

/// A single check's cache class from the hit and miss counter deltas
/// around it: `Some(true)` for a hit, `Some(false)` for a miss, `None`
/// when it bypassed the cache.
fn cache_class(hits: u64, misses: u64) -> Option<bool> {
    match (hits, misses) {
        (1, 0) => Some(true),
        (0, 1) => Some(false),
        _ => None,
    }
}

/// Times each beat of `ring` through `check` on its own; returns the
/// per-beat ns, each classed as a cache hit (`true`) or miss by the
/// counter deltas around it, and the failed beats.
fn timed_single_checks(
    ring: &[Burst],
    hits: &Counter,
    misses: &Counter,
    mut check: impl FnMut(&DmaRequest) -> CheckOutcome,
) -> (Vec<(u64, Option<bool>)>, u64) {
    let mut out = Vec::with_capacity(ring.len() * BEATS);
    let mut failed = 0;
    for burst in ring {
        for beat in &burst.beats {
            let (h0, m0) = (hits.get(), misses.get());
            let t = Instant::now();
            let o = check(std::hint::black_box(beat));
            let ns = ns_since(t);
            failed += u64::from(!burst.expect.holds(&o));
            out.push((ns, cache_class(hits.get() - h0, misses.get() - m0)));
        }
    }
    (out, failed)
}

fn median_ns(samples: &[u64]) -> (f64, u64) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    (median(&v), samples.len() as u64)
}

/// Records the median of timed single checks as the check stage's host
/// time, and their hit and miss medians as the cache and view-walk
/// metrics.
fn record_hit_miss(values: &mut Values, timed: &[(u64, Option<bool>)]) {
    let all: Vec<u64> = timed.iter().map(|t| t.0).collect();
    let (c, cn) = median_ns(&all);
    values.set("check.host_ns", c, cn);
    let hit: Vec<u64> = timed
        .iter()
        .filter(|t| t.1 == Some(true))
        .map(|t| t.0)
        .collect();
    let miss: Vec<u64> = timed
        .iter()
        .filter(|t| t.1 == Some(false))
        .map(|t| t.0)
        .collect();
    let (h, hn) = median_ns(&hit);
    let (m, mn) = median_ns(&miss);
    values.set("cache.hit_check_ns", h, hn);
    values.set("cache.miss_check_ns", m, mn);
    if hn > 0 && mn > 0 {
        values.set("view.walk_ns", m - h, hn.min(mn));
    }
}

fn set_end_to_end(values: &mut Values, setup_s: f64, stats: &WindowStats, ops_per_s: f64) {
    let windows = stats.windows() as u64;
    values.set("setup_s", setup_s, SETUP_REPS as u64);
    values.set("ops_per_s", ops_per_s, windows);
    values.set("lat_p50_us", stats.p50_us(), windows);
    values.set("lat_p99_us", stats.p99_us(), windows);
}

fn model_cycles(values: &mut Values, checks: u64) {
    let cycles = SiopmpConfig::default().checker.extra_cycles();
    values.set("check.model_cycles", f64::from(cycles), checks);
}

fn trace_overhead(values: &mut Values, untraced: f64, traced: f64, windows: u64) {
    values.set("trace.untraced_ops_per_s", untraced, windows);
    values.set("trace.traced_ops_per_s", traced, windows);
    values.set("trace.overhead_frac", 1.0 - traced / untraced, windows);
}

/// `check_stream`: see the module docs.
///
/// # Errors
///
/// A unit the layout cannot be built into.
pub fn check_stream(cfg: &RunConfig) -> Result<Outcome, String> {
    let input = StreamInput::generate(cfg.seed);
    let (setup_s, unit) = median_setup(SETUP_REPS, || input.layout.build(false));
    let unit = unit?;
    let mut out = Outcome::default();

    // Warm the decision cache: one pass of every ring.
    let warm = unit.share();
    for ring in &input.rings {
        for burst in ring {
            out.failed += stream_burst(&warm, burst);
        }
        out.attempted += (ring.len() * BEATS) as u64;
    }

    let phase = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (ops_per_s, stats, failed, _) = stream_phase(&unit, &input, phase, false);
    out.attempted += stats.ops;
    out.failed += failed;
    set_end_to_end(&mut out.values, setup_s, &stats, ops_per_s);
    out.notes.push(format!(
        "readers={READERS} windows={} bursts_per_window_per_reader={STREAM_WINDOW_BURSTS} \
         latency_samples_per_window={} (one check_batch of {BEATS} beats each)",
        stats.windows(),
        stats.samples_per_window
    ));
    out.notes.push(stats.raw_note());

    if cfg.trace {
        let (traced_ops, tstats, failed, spans) = stream_phase(&unit, &input, phase, true);
        out.attempted += tstats.ops;
        out.failed += failed;
        trace_overhead(
            &mut out.values,
            ops_per_s,
            traced_ops,
            tstats.windows() as u64,
        );
        out.notes
            .push(format!("traced phase kept {spans} burst spans"));
        model_cycles(&mut out.values, tstats.ops);

        // Single-thread probes on reader 0's ring: the same beats through
        // the shared handle (snapshot acquire per check) and through a pin
        // (no acquire), and each shared check classed as hit or miss.
        let shared = unit.share();
        let hits = unit.telemetry().counter("siopmp.cache.hits");
        let misses = unit.telemetry().counter("siopmp.cache.misses");
        let ring = &input.rings[0];
        let mut acquire = Vec::new();
        let mut timed = Vec::new();
        for _ in 0..3 {
            let (s, f1) = timed_single_checks(ring, &hits, &misses, |r| shared.check(r));
            let pinned = shared.pin();
            let (p, f2) = timed_single_checks(ring, &hits, &misses, |r| pinned.check(r));
            out.failed += f1 + f2;
            out.attempted += (s.len() + p.len()) as u64;
            let sum = |v: &[(u64, Option<bool>)]| v.iter().map(|t| t.0).sum::<u64>() as f64;
            acquire.push((sum(&s) - sum(&p)) / s.len() as f64);
            timed.extend(s);
        }
        out.values
            .set("snapshot.acquire_ns", median(&acquire), timed.len() as u64);
        record_hit_miss(&mut out.values, &timed);

        // Exact counts: a fresh unit, one warm pass, then one pass of each
        // ring interleaved burst by burst on this thread.
        let (t, counted) = (Instant::now(), input.layout.build(false)?);
        out.values
            .set("setup.unit_build_ms", t.elapsed().as_secs_f64() * 1e3, 1);
        let (f, n) = stream_count_pass(&counted, &input, &mut out.values);
        out.failed += f;
        out.attempted += n;
    }
    out.values.set("peak_rss_mb", peak_rss_mb(), 1);
    Ok(out)
}

/// The deterministic count pass of `check_stream`; returns (failed,
/// attempted) beats.
pub fn stream_count_pass(unit: &Siopmp, input: &StreamInput, values: &mut Values) -> (u64, u64) {
    let shared = unit.share();
    let longest = input.rings.iter().map(Vec::len).max().unwrap_or(0);
    let mut failed = 0;
    let mut attempted = 0;
    let mut pass = |failed: &mut u64| {
        for i in 0..longest {
            for ring in &input.rings {
                if let Some(burst) = ring.get(i) {
                    *failed += stream_burst(&shared, burst);
                    attempted += BEATS as u64;
                }
            }
        }
    };
    pass(&mut failed);
    let before = unit.telemetry().snapshot().counters;
    let gen0 = shared.generation();
    pass(&mut failed);
    let after = unit.telemetry().snapshot().counters;
    record_unit_counts(values, &[(before, after)], shared.generation() - gen0);
    (failed, attempted)
}

/// One step of the `check_churn` program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// A single-beat check and its intended verdict.
    Check(DmaRequest, Expect),
    /// Rewrite a hot entry with the other permission set (`set_entry`).
    Flap(EntryIndex, IopmpEntry),
    /// Mount a cold device at the eSID (`handle_sid_missing`).
    Switch(DeviceId),
}

/// `check_churn` inputs: the layout, the cold device mounted at set-up,
/// and one pass of the program. The program is cyclic: its last switch
/// mounts the set-up device again, so every pass starts in the same
/// mount state and keeps the same intended verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnInput {
    /// Unit layout.
    pub layout: Layout,
    /// Cold device mounted at set-up and at the end of every pass.
    pub initial_mount: DeviceId,
    /// One pass.
    pub program: Vec<ChurnOp>,
}

impl ChurnInput {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> ChurnInput {
        let mut rng = Rng::seed_from_u64(seed ^ 0xC4C4_0001);
        let layout = Layout::generate(&mut rng);
        let cold_sid = SiopmpConfig::default().cold_sid();
        let cold_start = HOT_ENTRIES as u32;
        let writes = CHURN_CHECKS / CHURN_K;
        let switches = writes / 2;

        // Switch targets: never the device already mounted, ending on the
        // set-up device.
        let initial = rng.gen_usize(0..COLD_DEVICES);
        let mut targets = Vec::with_capacity(switches);
        let mut mounted = initial;
        for i in 0..switches {
            let last = i + 1 == switches;
            let next = if last {
                initial
            } else {
                loop {
                    let c = rng.gen_usize(0..COLD_DEVICES);
                    // The one before last must also differ from the final
                    // target, or the closing switch would be a no-op.
                    if c != mounted && (i + 2 != switches || c != initial) {
                        break c;
                    }
                }
            };
            targets.push(next);
            mounted = next;
        }

        let mut rw: Vec<Vec<bool>> = layout
            .hot
            .iter()
            .map(|d| vec![true; d.pages.len()])
            .collect();
        let mut program = Vec::with_capacity(CHURN_CHECKS + writes);
        let mut mounted = initial;
        let mut switch_iter = targets.into_iter();
        for i in 0..CHURN_CHECKS {
            let r = rng.gen_f64();
            let op = if r < DENY_SHARE {
                let d = &layout.hot[rng.gen_usize(0..HOT_DEVICES)];
                let gap = *rng.choose(&d.gaps);
                let addr = gap + rng.gen_range(0..PAGE / BEAT_BYTES) * BEAT_BYTES;
                ChurnOp::Check(
                    DmaRequest::new(d.id, AccessKind::Read, addr, BEAT_BYTES),
                    Expect::Denied,
                )
            } else if r < DENY_SHARE + COLD_SHARE {
                let c = &layout.cold[mounted];
                let k = rng.gen_usize(0..c.pages.len());
                let addr = c.pages[k] + rng.gen_range(0..PAGE / BEAT_BYTES) * BEAT_BYTES;
                ChurnOp::Check(
                    DmaRequest::new(c.id, AccessKind::Read, addr, BEAT_BYTES),
                    Expect::Allowed {
                        matched: EntryIndex(cold_start + k as u32),
                        sid: cold_sid,
                    },
                )
            } else {
                let d = &layout.hot[rng.gen_usize(0..HOT_DEVICES)];
                let k = rng.gen_usize(0..d.pages.len());
                let addr = d.pages[k] + rng.gen_range(0..PAGE / BEAT_BYTES) * BEAT_BYTES;
                ChurnOp::Check(
                    DmaRequest::new(d.id, AccessKind::Read, addr, BEAT_BYTES),
                    Expect::Allowed {
                        matched: EntryIndex(d.window_start + k as u32),
                        sid: d.sid,
                    },
                )
            };
            program.push(op);
            if (i + 1) % CHURN_K == 0 {
                let w = (i + 1) / CHURN_K;
                if w % 2 == 1 {
                    let di = rng.gen_usize(0..HOT_DEVICES);
                    let d = &layout.hot[di];
                    let k = rng.gen_usize(0..d.pages.len());
                    rw[di][k] = !rw[di][k];
                    let perms = if rw[di][k] {
                        Permissions::rw()
                    } else {
                        Permissions::read_only()
                    };
                    program.push(ChurnOp::Flap(
                        EntryIndex(d.window_start + k as u32),
                        page_entry(d.pages[k], perms),
                    ));
                } else {
                    mounted = switch_iter.next().expect("one target per switch slot");
                    program.push(ChurnOp::Switch(layout.cold[mounted].id));
                }
            }
        }
        debug_assert_eq!(mounted, initial, "the program is cyclic");
        ChurnInput {
            initial_mount: layout.cold[initial].id,
            layout,
            program,
        }
    }

    /// Builds the unit and mounts the set-up cold device.
    ///
    /// # Errors
    ///
    /// Any mutator error.
    pub fn build(&self) -> Result<Siopmp, String> {
        let mut unit = self.layout.build(true)?;
        unit.handle_sid_missing(self.initial_mount)
            .map_err(|e| e.to_string())?;
        Ok(unit)
    }
}

/// Applies one write; `false` when the unit refused it.
fn churn_write(unit: &mut Siopmp, op: &ChurnOp) -> bool {
    match op {
        ChurnOp::Flap(idx, entry) => unit.set_entry(*idx, Some(*entry)).is_ok(),
        ChurnOp::Switch(dev) => unit.handle_sid_missing(*dev).is_ok(),
        ChurnOp::Check(..) => unreachable!("not a write"),
    }
}

/// Per-op trace of one traced `check_churn` pass.
#[derive(Default)]
struct ChurnTrace {
    /// Each check's ns and cache class.
    checks: Vec<(u64, Option<bool>)>,
    /// Each write's ns.
    writes_ns: Vec<u64>,
}

/// Runs one pass; with `trace`, records per-op spans and cache classes.
fn churn_pass(
    unit: &mut Siopmp,
    shared: &siopmp::SharedSiopmp,
    program: &[ChurnOp],
    mut trace: Option<&mut ChurnTrace>,
) -> (Window, u64) {
    let hits = unit.telemetry().counter("siopmp.cache.hits");
    let misses = unit.telemetry().counter("siopmp.cache.misses");
    let mut failed = 0u64;
    let window = Window::measure(|| {
        let mut lat = Vec::with_capacity(CHURN_CHECKS);
        for op in program {
            match op {
                ChurnOp::Check(req, expect) => match trace.as_deref_mut() {
                    None => {
                        let t = Instant::now();
                        let o = shared.check(std::hint::black_box(req));
                        lat.push(ns_since(t));
                        failed += u64::from(!expect.holds(&o));
                    }
                    Some(tr) => {
                        let (h0, m0) = (hits.get(), misses.get());
                        let t = Instant::now();
                        let o = shared.check(std::hint::black_box(req));
                        let ns = ns_since(t);
                        lat.push(ns);
                        failed += u64::from(!expect.holds(&o));
                        tr.checks
                            .push((ns, cache_class(hits.get() - h0, misses.get() - m0)));
                    }
                },
                write => {
                    let t = Instant::now();
                    failed += u64::from(!churn_write(unit, write));
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.writes_ns.push(ns_since(t));
                    }
                }
            }
        }
        (program.len() as u64, lat)
    });
    (window, failed)
}

/// Runs passes until `seconds` pass; returns the windows and the failed
/// ops.
fn churn_phase(
    unit: &mut Siopmp,
    program: &[ChurnOp],
    seconds: f64,
    mut trace: Option<&mut ChurnTrace>,
) -> (WindowStats, u64) {
    let shared = unit.share();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut stats = WindowStats::default();
    let mut failed = 0;
    while stats.windows() < MIN_WINDOWS || Instant::now() < deadline {
        let (window, f) = churn_pass(unit, &shared, program, trace.as_deref_mut());
        stats.push(window);
        failed += f;
    }
    (stats, failed)
}

/// `check_churn`: see the module docs.
///
/// # Errors
///
/// A unit the layout cannot be built into.
pub fn check_churn(cfg: &RunConfig) -> Result<Outcome, String> {
    let input = ChurnInput::generate(cfg.seed);
    let (setup_s, unit) = median_setup(SETUP_REPS, || input.build());
    let mut unit = unit?;
    let mut out = Outcome::default();
    let checks_per_pass = input
        .program
        .iter()
        .filter(|op| matches!(op, ChurnOp::Check(..)))
        .count() as u64;

    // Warm-up pass.
    let shared = unit.share();
    out.failed += churn_pass(&mut unit, &shared, &input.program, None).1;
    out.attempted += input.program.len() as u64;

    let phase = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (stats, failed) = churn_phase(&mut unit, &input.program, phase, None);
    out.attempted += stats.ops;
    out.failed += failed;
    set_end_to_end(&mut out.values, setup_s, &stats, stats.ops_per_s());
    out.notes.push(format!(
        "windows={} ops_per_window={} latency_samples_per_window={} (one check each)",
        stats.windows(),
        input.program.len(),
        stats.samples_per_window
    ));
    out.notes.push(stats.raw_note());

    if cfg.trace {
        let mut trace = ChurnTrace::default();
        let (tstats, failed) = churn_phase(&mut unit, &input.program, phase, Some(&mut trace));
        out.attempted += tstats.ops;
        out.failed += failed;
        let v = &mut out.values;
        trace_overhead(
            v,
            stats.ops_per_s(),
            tstats.ops_per_s(),
            tstats.windows() as u64,
        );
        model_cycles(v, checks_per_pass);
        record_hit_miss(v, &trace.checks);
        let writes: Vec<f64> = trace.writes_ns.iter().map(|&n| n as f64 / 1e3).collect();
        v.set("unit.write_us", median(&writes), writes.len() as u64);

        let (acquire, n) = paired_acquire(&input, &mut out)?;
        out.values.set("snapshot.acquire_ns", acquire, n);

        let t = Instant::now();
        let mut counted = input.build()?;
        out.values
            .set("setup.unit_build_ms", t.elapsed().as_secs_f64() * 1e3, 1);
        out.attempted += 2 * input.program.len() as u64;
        out.failed += churn_count_pass(&mut counted, &input, &mut out.values);
    }
    out.values.set("peak_rss_mb", peak_rss_mb(), 1);
    Ok(out)
}

/// Snapshot acquire on the churn stream: two units built from the same
/// input take the same program in lock step, one checked through its
/// shared handle, the other through a pin re-taken after every write, so
/// both answer from identical state and the per-check difference is the
/// acquire. The order of the pair alternates check by check. Returns
/// the mean difference in ns and the pairs behind it.
fn paired_acquire(input: &ChurnInput, out: &mut Outcome) -> Result<(f64, u64), String> {
    let (mut a, mut b) = (input.build()?, input.build()?);
    let (shared, pinned_src) = (a.share(), b.share());
    out.failed += churn_pass(&mut a, &shared, &input.program, None).1;
    out.failed += churn_pass(&mut b, &pinned_src, &input.program, None).1;
    out.attempted += 2 * input.program.len() as u64;
    let mut pin = pinned_src.pin();
    let mut diff = 0.0;
    let mut pairs = 0u64;
    for _ in 0..3 {
        for (i, op) in input.program.iter().enumerate() {
            match op {
                ChurnOp::Check(req, expect) => {
                    let time = |check: &dyn Fn(&DmaRequest) -> CheckOutcome| {
                        let t = Instant::now();
                        let o = check(std::hint::black_box(req));
                        (ns_since(t), o)
                    };
                    let via_shared = |r: &DmaRequest| shared.check(r);
                    let via_pin = |r: &DmaRequest| pin.check(r);
                    let ((ts, os), (tp, op)) = if i % 2 == 0 {
                        let s = time(&via_shared);
                        (s, time(&via_pin))
                    } else {
                        let p = time(&via_pin);
                        (time(&via_shared), p)
                    };
                    out.failed += u64::from(!expect.holds(&os)) + u64::from(!expect.holds(&op));
                    diff += ts as f64 - tp as f64;
                    pairs += 1;
                }
                write => {
                    out.failed += u64::from(!churn_write(&mut a, write));
                    out.failed += u64::from(!churn_write(&mut b, write));
                    pin = pinned_src.pin();
                }
            }
        }
        out.attempted += 2 * input.program.len() as u64;
    }
    Ok((diff / pairs as f64, pairs))
}

/// The deterministic count pass of `check_churn` (one warm pass, then
/// one counted pass); returns the failed ops of both.
pub fn churn_count_pass(unit: &mut Siopmp, input: &ChurnInput, values: &mut Values) -> u64 {
    let shared = unit.share();
    let warm = churn_pass(unit, &shared, &input.program, None).1;
    let before = unit.telemetry().snapshot().counters;
    let gen0 = shared.generation();
    let counted = churn_pass(unit, &shared, &input.program, None).1;
    let after = unit.telemetry().snapshot().counters;
    record_unit_counts(values, &[(before, after)], shared.generation() - gen0);
    warm + counted
}
