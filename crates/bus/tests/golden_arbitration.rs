//! Golden arbitration snapshot: busy, fault-ridden runs pinned to a
//! committed fixture.
//!
//! Seven masters with 2–4 outstanding bursts each, mixed reads and
//! writes, contend for both channels long after their first bursts have
//! resolved, so both round-robin arbiters wrap past many resolved
//! flights. A `DenyRange` policy denies part of the traffic, a directed
//! fault plan injects slave errors, dropped and duplicated beats, a
//! delayed grant and device resets, and one forced
//! `abort_in_flight_for_device` lands mid-run. That run is rendered (full
//! trace, decision log, report) under both violation modes: bus error
//! truncation and packet masking. A third, fault-free section pins the
//! arbiters' wrap rule: the response channel grants the newest flight
//! ever issued while an older one still waits, and the next scan must
//! restart at the oldest flight rather than at flights issued since.
//! Such patterns are rare (3 in 4,000 seeded seven-master runs); this
//! is one of them.
//!
//! The serial engine must match the fixture byte for byte, and so must
//! every shard of a four-domain parallel run at threads 1, 2 and 4. Each
//! shard runs an identical copy of the scenario without a home window,
//! so no traffic crosses domains and every shard replays the serial run.
//!
//! To regenerate the fixture after an *intentional* timing-model change,
//! run with `SIOPMP_BLESS=1` and commit the rewritten file.

use siopmp::ids::DeviceId;
use siopmp_bus::parallel::{DomainSpec, ParallelSim};
use siopmp_bus::policy::DenyRange;
use siopmp_bus::{
    BurstKind, BusConfig, BusSim, FaultEvent, FaultKind, FaultPlan, MasterProgram, RetryPolicy,
};

const FIXTURE: &str = include_str!("fixtures/golden_arbitration.txt");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_arbitration.txt"
);
const TRACE_CAPACITY: usize = 1 << 16;
const MAX_CYCLES: u64 = 100_000;
/// Cycle at which a section's forced abort lands.
const ABORT_AT: u64 = 150;
const DOMAINS: usize = 4;
const EPOCH_CYCLES: u64 = 16;

/// One pinned run.
struct Section {
    name: &'static str,
    config: BusConfig,
    masters: Vec<MasterProgram>,
    faults: FaultPlan,
    /// Device whose in-flight bursts are forcibly aborted at [`ABORT_AT`].
    abort: Option<DeviceId>,
}

fn policy() -> DenyRange {
    DenyRange {
        base: 0x2000,
        len: 0x1000,
    }
}

fn sections() -> [Section; 3] {
    let masking = BusConfig {
        bus_error_truncates: false,
        masking_read_extra: 1,
        ..BusConfig::default()
    };
    [
        Section {
            name: "bus-error",
            config: BusConfig::default(),
            masters: faulted_masters(),
            faults: fault_plan(),
            abort: Some(DeviceId(6)),
        },
        Section {
            name: "masking",
            config: masking,
            masters: faulted_masters(),
            faults: fault_plan(),
            abort: Some(DeviceId(6)),
        },
        Section {
            name: "wrap",
            config: BusConfig::default(),
            masters: wrap_masters(),
            faults: FaultPlan::empty(),
            abort: None,
        },
    ]
}

fn faulted_masters() -> Vec<MasterProgram> {
    let retry = RetryPolicy::bounded(3, 2);
    vec![
        MasterProgram::streaming(1, BurstKind::Read, 0x1000, 64, 16)
            .with_outstanding(3)
            .with_retry(retry),
        MasterProgram::streaming(2, BurstKind::Write, 0x1800, 64, 12).with_outstanding(2),
        // Straddles the denied window: legal, then denied, then legal.
        MasterProgram::streaming(3, BurstKind::Read, 0x1f00, 64, 10)
            .chain(MasterProgram::streaming(3, BurstKind::Read, 0x3000, 64, 4))
            .with_outstanding(4),
        MasterProgram::streaming(4, BurstKind::Write, 0x2800, 64, 14)
            .with_outstanding(3)
            .with_retry(retry),
        MasterProgram::streaming(5, BurstKind::Read, 0x4000, 64, 6)
            .chain(MasterProgram::streaming(5, BurstKind::Write, 0x4400, 64, 6))
            .with_outstanding(2)
            .with_retry(retry),
        MasterProgram::streaming(6, BurstKind::Write, 0x5000, 64, 14)
            .with_outstanding(4)
            .with_retry(retry),
        MasterProgram::streaming(7, BurstKind::Write, 0x2000, 64, 4)
            .chain(MasterProgram::streaming(7, BurstKind::Read, 0x6000, 64, 10))
            .with_outstanding(2),
    ]
}

fn fault_plan() -> FaultPlan {
    let events = [
        (24, FaultKind::SlaveError { master: 0 }),
        (31, FaultKind::DropBeat { master: 1 }),
        (47, FaultKind::DuplicateBeat { master: 4 }),
        (60, FaultKind::DeviceReset { master: 3 }),
        (75, FaultKind::DelayedGrant { cycles: 6 }),
        (92, FaultKind::DuplicateBeat { master: 0 }),
        (118, FaultKind::SlaveError { master: 6 }),
        (133, FaultKind::DropBeat { master: 5 }),
        (171, FaultKind::DeviceReset { master: 0 }),
        (204, FaultKind::SlaveError { master: 4 }),
        (236, FaultKind::DropBeat { master: 2 }),
        (262, FaultKind::DuplicateBeat { master: 6 }),
        (297, FaultKind::DeviceReset { master: 4 }),
        (340, FaultKind::SlaveError { master: 5 }),
    ];
    FaultPlan::from_events(
        0,
        events
            .into_iter()
            .map(|(at, kind)| FaultEvent { at, kind })
            .collect(),
    )
}

fn wrap_masters() -> Vec<MasterProgram> {
    use BurstKind::{Read, Write};
    [
        (Write, 9, 3),
        (Write, 15, 3),
        (Read, 13, 4),
        (Read, 9, 2),
        (Write, 13, 4),
        (Read, 6, 3),
        (Write, 10, 4),
    ]
    .into_iter()
    .zip(1u64..)
    .map(|((kind, count, outstanding), device)| {
        MasterProgram::streaming(device, kind, 0x1000 * device, 64, count)
            .with_outstanding(outstanding)
    })
    .collect()
}

fn render(sim: &BusSim, aborted: Option<usize>) -> String {
    let trace = sim.trace().unwrap();
    let mut out = format!("aborted_at={ABORT_AT} aborted={aborted:?}\n");
    out.push_str("# trace\n");
    for e in trace.events() {
        out.push_str(&format!(
            "{:>5} m{} {:?} {:?}\n",
            e.cycle, e.master, e.burst_kind, e.kind
        ));
    }
    out.push_str(&format!("dropped={}\n# decisions\n", trace.dropped()));
    for d in sim.decision_log().unwrap() {
        out.push_str(&format!(
            "{:>5} m{} dev{} {:?} {:#x} {:?} gen={} attempt={} {:?}\n",
            d.cycle,
            d.master,
            d.device.0,
            d.kind,
            d.addr,
            d.verdict,
            d.generation,
            d.attempt,
            d.status
        ));
    }
    out.push_str("# report\n");
    out.push_str(&sim.report().to_json().pretty());
    out.push('\n');
    out
}

fn serial_run(s: &Section) -> String {
    let mut sim = BusSim::build(s.config.clone(), Box::new(policy()), None);
    sim.enable_trace(TRACE_CAPACITY);
    sim.enable_decision_log();
    for p in &s.masters {
        sim.add_master(p.clone());
    }
    sim.set_fault_plan(s.faults.clone());
    while sim.cycle() < ABORT_AT && !sim.all_done() {
        sim.step();
    }
    let aborted = s.abort.map(|dev| sim.abort_in_flight_for_device(dev));
    sim.run_to_completion(MAX_CYCLES);
    render(&sim, aborted)
}

/// Every shard's rendering from a [`DOMAINS`]-domain parallel run.
fn parallel_run(s: &Section, threads: usize) -> Vec<String> {
    let mut psim = ParallelSim::new(EPOCH_CYCLES, threads);
    for _ in 0..DOMAINS {
        let mut spec = DomainSpec::for_policy(policy())
            .with_config(s.config.clone())
            .with_fault_plan(s.faults.clone());
        for p in &s.masters {
            spec = spec.with_master(p.clone());
        }
        psim.add_domain(spec);
    }
    psim.enable_trace(TRACE_CAPACITY);
    for d in 0..DOMAINS {
        psim.domain_mut(d).enable_decision_log();
    }
    psim.run(ABORT_AT);
    let aborted: Vec<Option<usize>> = (0..DOMAINS)
        .map(|d| {
            s.abort
                .map(|dev| psim.domain_mut(d).abort_in_flight_for_device(dev))
        })
        .collect();
    psim.run(MAX_CYCLES);
    (0..DOMAINS)
        .map(|d| render(psim.domain(d), aborted[d]))
        .collect()
}

fn serial_all() -> String {
    let mut out = String::new();
    for s in sections() {
        out.push_str(&format!("## {}\n", s.name));
        out.push_str(&serial_run(&s));
    }
    out
}

#[test]
fn serial_engine_matches_committed_fixture() {
    let actual = serial_all();
    if std::env::var("SIOPMP_BLESS").is_ok() {
        std::fs::write(FIXTURE_PATH, &actual).unwrap();
        return;
    }
    assert_eq!(
        actual, FIXTURE,
        "serial arbitration diverged from the committed fixture \
         (SIOPMP_BLESS=1 regenerates it after intentional changes)"
    );
}

#[test]
fn the_fixture_exercises_what_it_pins() {
    // Guards the scenarios themselves: a forced abort that hits nothing,
    // a policy that denies nothing or a fault plan that never makes a
    // master retry pins less than it claims.
    for s in sections() {
        let run = serial_run(&s);
        let name = s.name;
        assert!(run.contains("dropped=0\n"), "{name}: trace overflowed");
        for needle in ["Denied", "BusError", "\"completed\": 1,"] {
            assert!(run.contains(needle), "{name}: no {needle} in the run");
        }
        if s.abort.is_some() {
            assert!(
                !run.contains("aborted=Some(0)"),
                "{name}: the forced abort hit no flight"
            );
        }
        if !s.faults.is_empty() {
            assert!(run.contains("attempt=1"), "{name}: nothing was retried");
        }
    }
}

#[test]
fn every_parallel_shard_reproduces_the_fixture() {
    if std::env::var("SIOPMP_BLESS").is_ok() {
        return; // fixture being regenerated by the serial test
    }
    for threads in [1, 2, 4] {
        let shards: Vec<(&str, Vec<String>)> = sections()
            .iter()
            .map(|s| (s.name, parallel_run(s, threads)))
            .collect();
        for d in 0..DOMAINS {
            let mut rendered = String::new();
            for (name, shard) in &shards {
                rendered.push_str(&format!("## {name}\n"));
                rendered.push_str(&shard[d]);
            }
            assert_eq!(
                rendered, FIXTURE,
                "threads={threads} domain={d}: parallel shard diverged from the fixture"
            );
        }
    }
}
