//! The benchmark's own tests, at smoke scale (every dataset the tiny
//! preset): probes change no decision, and every workload passes its
//! output check at two seeds, traced and untraced.

use crate::probe;
use crate::run::{Digest, Params, Scale, Tally, Workload};
use crate::workloads::{AnnotateLarge, AnnotatePaged, ChurnFocal, ReplicatedTiny, NAMES};

fn smoke(seed: u64, trace: bool) -> Params {
    Params { seed, seconds: 0.2, trace, scale: Scale::Smoke }
}

/// Decisions of `rounds` rounds, with or without the probes installed
/// and recording.
fn decisions<W: Workload>(wrapped: bool, rounds: usize) -> Digest {
    let params = smoke(3, wrapped);
    let mut workload = W::setup(&params).expect("smoke set-up");
    if wrapped {
        workload.install_probes();
    }
    let mut tally = Tally::default();
    for _ in 0..rounds {
        probe::set_recording(wrapped);
        workload.round(&mut tally);
        probe::set_recording(false);
    }
    assert_eq!(tally.failed, 0, "no smoke operation fails");
    workload.check(&tally).expect("output check");
    tally.digest
}

#[test]
fn probes_change_no_decision() {
    assert_eq!(decisions::<AnnotateLarge>(false, 3), decisions::<AnnotateLarge>(true, 3));
    assert_eq!(decisions::<AnnotatePaged>(false, 3), decisions::<AnnotatePaged>(true, 3));
    assert_eq!(decisions::<ChurnFocal>(false, 3), decisions::<ChurnFocal>(true, 3));
    assert_eq!(decisions::<ReplicatedTiny>(false, 3), decisions::<ReplicatedTiny>(true, 3));
}

#[test]
fn every_workload_checks_out_at_a_second_seed() {
    for seed in [1, 2] {
        for trace in [false, true] {
            for name in NAMES {
                let outcome = crate::run_workload(name, &smoke(seed, trace))
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let tag = format!("{name} seed={seed} trace={trace}");
                assert_eq!(outcome.check, Ok(()), "{tag}");
                assert_eq!(outcome.tally.failed, 0, "{tag}");
                assert!(outcome.tally.committed > 0, "{tag}");
                assert!(outcome.metrics.iter().all(|m| m.value.is_finite()), "{tag}");
            }
        }
    }
}

#[test]
fn decisions_depend_on_the_seed() {
    let digest = |seed| {
        let mut workload = AnnotateLarge::setup(&smoke(seed, false)).expect("smoke set-up");
        let mut tally = Tally::default();
        workload.round(&mut tally);
        tally.digest
    };
    assert_eq!(digest(5), digest(5));
    assert_ne!(digest(5), digest(6));
}

/// `(name, unit)` of every metric object in `BENCHMARK.json`; workload
/// objects carry no unit and come back with an empty one.
fn declared() -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| {
            let (name, rest) = rest.split_once('"').expect("closing quote");
            let object = rest.split('}').next().unwrap_or_default();
            let unit = object
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .map_or(String::new(), |(u, _)| u.to_string());
            (name.to_string(), unit)
        })
        .collect()
}

#[test]
fn emitted_metrics_match_the_declaration() {
    let mut emitted: Vec<(String, String)> =
        NAMES.iter().map(|name| (name.to_string(), String::new())).collect();
    for trace in [false, true] {
        let outcome = crate::run_workload("replicated-tiny", &smoke(1, trace)).expect("smoke run");
        emitted.extend(outcome.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())));
    }
    let mut declared = declared();
    emitted.sort();
    declared.sort();
    assert_eq!(emitted, declared);
}
