//! A runner keeps its shard threads from frame to frame and resets them
//! to power-on at the start of each one. Whatever an earlier frame left
//! behind — a respawned worker, a corrupted boundary value, an upset
//! register, a torn-down fleet — the next frame must start clean and
//! stay bit-exact against a single engine, on the event and compiled
//! backends.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Duration;

use dwt_arch::designs::Design;
use dwt_partition::{
    partition, run_single, ChaosPlan, Corruption, CutOptions, DetectionKind, PartitionRunner, Rung,
    RunnerConfig, SeuChaos, Stimulus,
};
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::Engine;
use dwt_rtl::sim::Simulator;

fn stimulus(cycles: u64, seed: i64) -> Stimulus {
    let stream = |k: i64| (0..cycles as i64).map(|c| (c * k + seed) % 256 - 128).collect();
    let inputs = BTreeMap::from([("in_even".into(), stream(37)), ("in_odd".into(), stream(91))]);
    Stimulus { cycles, inputs }
}

/// A frame with a killed worker, a stealth corruption and an SEU
/// drizzle, then a clean frame on the same runner, twice over. The
/// clean frame runs against its oracle, so an upset or a stale value
/// that outlived the power-on reset would cost it a recovery.
fn clean_frame_after_chaos_needs_no_recovery<E>()
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    let built = Design::D2.build().expect("design builds");
    let (chaos_stim, clean_stim) = (stimulus(96, 3), stimulus(96, 4));
    let chaos_ref = run_single::<E>(&built.netlist, &chaos_stim, None).expect("reference");
    let clean_ref = run_single::<E>(&built.netlist, &clean_stim, None).expect("reference");
    let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
    let (from, to) = (cut.links[0].from, cut.links[0].to);
    // The corruption strikes the first batch and the kill the second.
    let config = RunnerConfig {
        snapshot_interval: 48,
        watchdog: Duration::from_millis(100),
        ..RunnerConfig::default()
    };
    let runner = PartitionRunner::<E>::new(&cut, config);
    let chaos = ChaosPlan {
        kills: vec![(1, 60)],
        corruptions: vec![Corruption { from, to, cycle: 20, stealth: true }],
        seu: Some(SeuChaos { rate: 0.004, seed: 11 }),
        ..ChaosPlan::default()
    };
    for round in 0..2 {
        let report = runner.run_frame(&chaos_stim, Some(&chaos_ref), &chaos, None).expect("frame");
        let kinds: Vec<&DetectionKind> = report.detections.iter().map(|d| &d.kind).collect();
        assert_eq!(report.rung, Rung::Partitioned, "round {round}: {kinds:?}");
        assert!(kinds.contains(&&DetectionKind::LinkHashMismatch), "round {round}: {kinds:?}");
        assert!(report.recoveries >= 2, "round {round}: {kinds:?}");
        assert_eq!(report.outputs, chaos_ref, "round {round}: chaos frame diverged");

        let report = runner
            .run_frame(&clean_stim, Some(&clean_ref), &ChaosPlan::default(), None)
            .expect("frame");
        assert_eq!(report.rung, Rung::Partitioned, "round {round}");
        assert_eq!(report.recoveries, 0, "round {round}: {:?}", report.detections);
        assert!(report.detections.is_empty(), "round {round}: {:?}", report.detections);
        assert_eq!(report.outputs, clean_ref, "round {round}: clean frame diverged");
    }
}

#[test]
fn clean_frame_after_chaos_needs_no_recovery_event() {
    clean_frame_after_chaos_needs_no_recovery::<Simulator>();
}

#[test]
fn clean_frame_after_chaos_needs_no_recovery_compiled() {
    clean_frame_after_chaos_needs_no_recovery::<CompiledEngine>();
}

/// With no recovery budget a kill degrades the frame and tears its
/// fleet down; the next frame must start a fresh one and complete on
/// the partitioned rung.
fn frame_after_a_degraded_frame_runs_partitioned<E>()
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    let built = Design::D5.build().expect("design builds");
    let stim = stimulus(96, 7);
    let reference = run_single::<E>(&built.netlist, &stim, None).expect("reference");
    let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
    let config = RunnerConfig { max_recoveries: 0, ..RunnerConfig::default() };
    let runner = PartitionRunner::<E>::new(&cut, config);
    let kill = ChaosPlan { kills: vec![(1, 50)], ..ChaosPlan::default() };
    for round in 0..2 {
        let report = runner.run_frame(&stim, None, &kill, None).expect("degraded frame");
        assert_eq!(report.rung, Rung::SingleEngine, "round {round}: {:?}", report.detections);
        assert_eq!(report.outputs, reference, "round {round}: degraded frame diverged");
        for frame in 0..2 {
            let report = runner.run_frame(&stim, None, &ChaosPlan::default(), None).expect("frame");
            assert_eq!(report.rung, Rung::Partitioned, "round {round}.{frame}");
            assert_eq!(report.outputs, reference, "round {round}.{frame}: diverged");
        }
    }
}

#[test]
fn frame_after_a_degraded_frame_runs_partitioned_event() {
    frame_after_a_degraded_frame_runs_partitioned::<Simulator>();
}

#[test]
fn frame_after_a_degraded_frame_runs_partitioned_compiled() {
    frame_after_a_degraded_frame_runs_partitioned::<CompiledEngine>();
}

/// Callers on several threads share one runner: their frames take
/// turns on its one fleet, and each stays bit-exact.
#[test]
fn concurrent_frames_on_one_runner_take_turns() {
    let built = Design::D5.build().expect("design builds");
    let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
    let runner = PartitionRunner::<CompiledEngine>::new(&cut, RunnerConfig::default());
    let callers = 3;
    let start = Barrier::new(callers);
    std::thread::scope(|scope| {
        for caller in 0..callers as i64 {
            let (runner, netlist, start) = (&runner, &built.netlist, &start);
            scope.spawn(move || {
                // Every caller asks for its first frame at once.
                start.wait();
                for frame in 0..4 {
                    let stim = stimulus(64, 10 * caller + frame);
                    let reference =
                        run_single::<CompiledEngine>(netlist, &stim, None).expect("reference");
                    let report =
                        runner.run_frame(&stim, None, &ChaosPlan::default(), None).expect("frame");
                    assert_eq!(report.rung, Rung::Partitioned, "caller {caller}, frame {frame}");
                    assert_eq!(report.recoveries, 0, "caller {caller}, frame {frame}");
                    assert_eq!(report.outputs, reference, "caller {caller}, frame {frame}");
                }
            });
        }
    });
}
