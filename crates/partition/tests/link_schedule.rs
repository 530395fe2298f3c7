//! The per-link exchange schedule under recovery: a static link's
//! constants travel only in the batch prologue, and an upstream link is
//! received and settled after the consumer's tick. Both must stay
//! bit-exact against a single engine when workers die and messages are
//! corrupted, on the event and compiled backends.

use std::collections::BTreeMap;
use std::time::Duration;

use dwt_arch::designs::Design;
use dwt_partition::{
    partition, run_single, ChaosPlan, Corruption, CutOptions, DetectionKind, LinkSchedule,
    PartitionRunner, PartitionedNetlist, Rung, RunnerConfig, Stimulus, WorkerSpec,
};
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::Engine;
use dwt_rtl::sim::Simulator;

fn stimulus(cycles: u64, seed: i64) -> Stimulus {
    let stream = |k: i64| (0..cycles as i64).map(|c| (c * k + seed) % 256 - 128).collect();
    let inputs = BTreeMap::from([("in_even".into(), stream(37)), ("in_odd".into(), stream(91))]);
    Stimulus { cycles, inputs }
}

/// The `(from, to)` of every link of `schedule`.
fn links_of(cut: &PartitionedNetlist, schedule: LinkSchedule) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    for w in 0..cut.parts() {
        let spec = WorkerSpec::from_cut(cut, w).expect("spec");
        let ins = cut.links.iter().filter(|l| l.to == w);
        for (link, &s) in ins.zip(&spec.in_schedule) {
            if s == schedule {
                found.push((link.from, link.to));
            }
        }
    }
    found
}

fn crashed(kind: &DetectionKind) -> bool {
    matches!(kind, DetectionKind::Crash | DetectionKind::Stall)
}

/// A worker killed inside the first batch has no barrier to return to:
/// the rollback is to power-on, and the replay's prologue must hand the
/// static link's constants over again.
fn power_on_rollback_resends_static_values<E>()
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    let built = Design::D5.build().expect("design builds");
    let stim = stimulus(96, 11);
    let reference = run_single::<E>(&built.netlist, &stim, None).expect("reference");
    let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
    assert_eq!(links_of(&cut, LinkSchedule::Static), [(1, 0)]);
    let config = RunnerConfig { snapshot_interval: 32, ..RunnerConfig::default() };
    let runner = PartitionRunner::<E>::new(&cut, config);
    for victim in [1, 0] {
        let chaos = ChaosPlan { kills: vec![(victim, 10)], ..ChaosPlan::default() };
        let report = runner.run_frame(&stim, None, &chaos, None).expect("frame completes");
        let kinds: Vec<&DetectionKind> = report.detections.iter().map(|d| &d.kind).collect();
        assert_eq!(report.rung, Rung::Partitioned, "{kinds:?}");
        assert!(report.recoveries >= 1, "worker {victim}: {kinds:?}");
        assert!(kinds.iter().any(|k| crashed(k)), "worker {victim}: {kinds:?}");
        assert!(report.detections.iter().all(|d| d.batch_start == 0), "{:?}", report.detections);
        assert_eq!(report.outputs, reference, "worker {victim} killed: outputs diverged");
    }
}

#[test]
fn power_on_rollback_resends_static_values_event() {
    power_on_rollback_resends_static_values::<Simulator>();
}

#[test]
fn power_on_rollback_resends_static_values_compiled() {
    power_on_rollback_resends_static_values::<CompiledEngine>();
}

/// Design 1 in four shards has a dynamic link running back from shard
/// 2 to shard 1, so shard 1 receives after its tick and settles. A
/// corruption on that link and a killed worker both roll the frame
/// back; the replay must still match a single engine bit for bit.
fn upstream_link_survives_kill_and_corruption<E>()
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    let built = Design::D1.build().expect("design builds");
    let stim = stimulus(128, 5);
    let reference = run_single::<E>(&built.netlist, &stim, None).expect("reference");
    let cut = partition(&built.netlist, 4, &CutOptions::default()).expect("cut");
    assert!(links_of(&cut, LinkSchedule::Upstream).contains(&(2, 1)));
    let config = RunnerConfig {
        snapshot_interval: 32,
        watchdog: Duration::from_millis(100),
        ..RunnerConfig::default()
    };
    let runner = PartitionRunner::<E>::new(&cut, config);
    let chaos = ChaosPlan {
        corruptions: vec![Corruption { from: 2, to: 1, cycle: 50, stealth: false }],
        kills: vec![(2, 90)],
        ..ChaosPlan::default()
    };
    let report = runner.run_frame(&stim, None, &chaos, None).expect("frame completes");
    let kinds: Vec<&DetectionKind> = report.detections.iter().map(|d| &d.kind).collect();
    assert_eq!(report.rung, Rung::Partitioned, "{kinds:?}");
    assert!(report.recoveries >= 2, "{} recoveries: {kinds:?}", report.recoveries);
    assert!(kinds.contains(&&DetectionKind::Checksum), "{kinds:?}");
    assert!(kinds.iter().any(|k| crashed(k)), "{kinds:?}");
    assert_eq!(report.outputs, reference, "post-recovery outputs diverged");
}

#[test]
fn upstream_link_survives_kill_and_corruption_event() {
    upstream_link_survives_kill_and_corruption::<Simulator>();
}

#[test]
fn upstream_link_survives_kill_and_corruption_compiled() {
    upstream_link_survives_kill_and_corruption::<CompiledEngine>();
}
