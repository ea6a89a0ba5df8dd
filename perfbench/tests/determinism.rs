//! Self-tests of the benchmark: seeded generators repeat byte for byte,
//! counted passes repeat exactly, a wrong verdict is counted as failed,
//! and the metric catalogue matches `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use siopmp::ids::EntryIndex;
use siopmp_perfbench::check::{self, ChurnInput, ChurnOp, Expect, StreamInput};
use siopmp_perfbench::daemon::{self, Class, FrameStream};
use siopmp_perfbench::dma;
use siopmp_perfbench::report::{Values, END_TO_END, PER_LAYER};
use siopmp_serviced::Fleet;

fn corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus")
}

fn frames(seed: u64) -> FrameStream {
    let fleet = Fleet::load_dir(&corpus()).expect("corpus loads");
    FrameStream::generate(seed, &fleet).expect("frames generate")
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    assert_eq!(StreamInput::generate(7), StreamInput::generate(7));
    assert_ne!(StreamInput::generate(7), StreamInput::generate(8));
    assert_eq!(ChurnInput::generate(7), ChurnInput::generate(7));
    assert_ne!(
        ChurnInput::generate(7).program,
        ChurnInput::generate(8).program
    );
    assert_eq!(dma::scenario_text(7), dma::scenario_text(7));
    assert_ne!(dma::scenario_text(7), dma::scenario_text(8));
    let (a, b, c) = (frames(7), frames(7), frames(8));
    assert_eq!(a.prologue, b.prologue);
    assert_eq!(a.pass, b.pass);
    assert_eq!(a.classes, b.classes);
    assert_ne!(a.pass, c.pass);
}

#[test]
fn generated_mixes_have_the_intended_shape() {
    let churn = ChurnInput::generate(3);
    let checks = churn
        .program
        .iter()
        .filter(|op| matches!(op, ChurnOp::Check(..)))
        .count();
    let denials = churn
        .program
        .iter()
        .filter(|op| matches!(op, ChurnOp::Check(_, Expect::Denied)))
        .count();
    let switches = churn
        .program
        .iter()
        .filter(|op| matches!(op, ChurnOp::Switch(_)))
        .count();
    assert_eq!(checks, 32_768);
    let share = denials as f64 / checks as f64;
    assert!((0.05..0.07).contains(&share), "denial share {share}");
    assert_eq!(switches, 1024);
    let f = frames(3);
    let switched = f.classes.iter().filter(|c| **c == Class::Switched).count();
    let denied = f.classes.iter().filter(|c| **c == Class::Denied).count();
    assert_eq!(switched, daemon::PASS_FRAMES / 256);
    assert!(denied > 0 && f.classes.contains(&Class::Allowed));
}

#[test]
fn check_count_passes_repeat_exactly_with_no_failures() {
    let input = StreamInput::generate(11);
    let count = || {
        let mut v = Values::default();
        let (failed, attempted) =
            check::stream_count_pass(&input.layout.build(false).unwrap(), &input, &mut v);
        assert_eq!(failed, 0);
        assert!(attempted > 0);
        v
    };
    let first = count();
    assert_eq!(first, count());
    assert_eq!(
        first.get("effects.counter_bumps_per_check").unwrap().value,
        4.0
    );

    let churn = ChurnInput::generate(11);
    let count = || {
        let mut v = Values::default();
        assert_eq!(
            check::churn_count_pass(&mut churn.build().unwrap(), &churn, &mut v),
            0
        );
        v
    };
    let first = count();
    assert_eq!(first, count());
    assert!(first.get("snapshot.publishes").unwrap().value >= 1024.0);
    assert_eq!(first.get("unit.cold_switches").unwrap().value, 1024.0);
}

#[test]
fn daemon_count_pass_repeats_exactly_with_no_failures() {
    let input = frames(5);
    let count = || {
        let mut v = Values::default();
        let (failed, _) = daemon::wire_count_pass(&corpus(), &input, &mut v).unwrap();
        assert_eq!(failed, 0);
        v
    };
    let first = count();
    assert_eq!(first, count());
    assert_eq!(first.get("daemon.shed").unwrap().value, 0.0);
    let switches = (daemon::PASS_FRAMES / 256) as f64;
    assert_eq!(first.get("daemon.switches").unwrap().value, switches);
}

#[test]
fn dma_simulation_repeats_exactly_at_every_thread_count() {
    let (r1, x1, c1) = dma::simulate(9, 2).unwrap();
    let (r2, x2, c2) = dma::simulate(9, 2).unwrap();
    let (r3, x3, _) = dma::simulate(9, 1).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r1, r3);
    assert_eq!((x1, x2, x3), (2048, 2048, 2048));
    assert_eq!(c1, c2);
    assert_eq!(dma::burst_lat_cycles(&r1), dma::burst_lat_cycles(&r3));
    assert_eq!(dma::failed_bursts(&r1), 0);
    assert!(r1.completed);
}

#[test]
fn wrong_verdicts_are_counted() {
    // A stream burst whose expectation names the wrong entry: every beat
    // of it fails, in both passes of the count.
    let mut input = StreamInput::generate(2);
    let unit = input.layout.build(false).unwrap();
    if let Expect::Allowed { matched, .. } = &mut input.rings[0][0].expect {
        *matched = EntryIndex(matched.0 + 1);
    }
    let (failed, _) = check::stream_count_pass(&unit, &input, &mut Values::default());
    assert_eq!(failed, 2 * check::BEATS as u64);

    // A churn check expected allowed that the unit denies.
    let mut churn = ChurnInput::generate(2);
    let denied = churn
        .program
        .iter_mut()
        .find_map(|op| match op {
            ChurnOp::Check(_, e @ Expect::Denied) => Some(e),
            _ => None,
        })
        .unwrap();
    *denied = Expect::Allowed {
        matched: EntryIndex(0),
        sid: siopmp::ids::SourceId(0),
    };
    let mut unit = churn.build().unwrap();
    assert_eq!(
        check::churn_count_pass(&mut unit, &churn, &mut Values::default()),
        2
    );

    // Daemon responses: a shed, a wrong class and a missing frame.
    let mut sink = Vec::new();
    for text in [
        "{\"verdict\":\"allowed\",\"tick\":2}",
        "{\"verdict\":\"shed\",\"tick\":4,\"reason\":\"tenant_rate\"}",
        "{\"verdict\":\"allowed\",\"tick\":6}",
    ] {
        siopmp_serviced::write_frame(&mut sink, text).unwrap();
    }
    let intended = [
        Class::Allowed,
        Class::Allowed,
        Class::Denied,
        Class::Switched,
    ];
    assert_eq!(daemon::count_mismatches(&sink, &intended), 3);
    assert_eq!(daemon::count_mismatches(&sink, &intended[..1]), 0);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let (e2e, layers) = text.split_once("\"per_layer\"").expect("per_layer section");
    for (section, specs) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
        for s in specs {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", s.name, s.unit);
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(section.matches("\"unit\"").count(), specs.len());
    }
}
