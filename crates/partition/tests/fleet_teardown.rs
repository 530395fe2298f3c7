//! Shard threads live exactly as long as their runner. This test counts
//! the threads of the whole process, so it is the only one in its test
//! binary.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use dwt_arch::designs::Design;
use dwt_partition::{
    partition, ChaosPlan, CutOptions, PartitionRunner, Rung, RunnerConfig, Stimulus,
};
use dwt_rtl::compile::CompiledEngine;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("process status");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

/// A joined thread may stay in the count a moment after `join`
/// returns, so the count gets a short while to settle.
fn settled_threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != want && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    threads()
}

#[test]
fn dropped_runners_leave_no_shard_thread_behind() {
    let netlist = Design::D5.build().expect("design builds").netlist;
    let cut = partition(&netlist, 2, &CutOptions::default()).expect("cut");
    let stream = |k: i64| (0..32).map(|c| (c * k + 5) % 256 - 128).collect();
    let inputs = BTreeMap::from([("in_even".into(), stream(37)), ("in_odd".into(), stream(91))]);
    let stim = Stimulus { cycles: 32, inputs };
    let before = threads();
    for round in 0..50 {
        let runner = PartitionRunner::<CompiledEngine>::new(&cut, RunnerConfig::default());
        for frame in 0..2 {
            let report = runner.run_frame(&stim, None, &ChaosPlan::default(), None).expect("frame");
            assert_eq!(report.rung, Rung::Partitioned, "runner {round}, frame {frame}");
            // Between frames both shard threads stay up, idle.
            assert_eq!(settled_threads(before + 2), before + 2, "runner {round}, frame {frame}");
        }
    }
    assert_eq!(settled_threads(before), before, "shard threads outlived their runners");
}
