//! Per-layer measurements that drive `arch` and `rtl` directly.

use std::time::Instant;

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_rtl::engine::Engine;
use dwt_serve::golden_tile;

use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Audit, Res};

/// Per-layer metrics of the serve and recover layers, which the
/// partition workload does not drive.
pub const SERVE_METRICS: &[&str] = &[
    "serve.start_s",
    "serve.submit_us_p50",
    "serve.submit_us_p99",
    "serve.server_latency_ms_p99",
    "serve.rung_replay_share",
    "serve.rung_tmr_share",
    "serve.golden_share",
    "serve.retries",
    "serve.redispatches",
    "serve.breaker_transitions",
    "serve.kernel_fraction",
    "recover.run_tile_us_p50",
    "recover.run_tile_us_p99",
    "recover.useful_cycle_share",
    "recover.recovery_cycle_share",
    "recover.replays_per_tile",
    "rtl.spare_build_ms",
];

/// Per-layer metrics of the partition layer, which the serve workloads
/// do not drive.
pub const PARTITION_METRICS: &[&str] = &[
    "partition.cut_ms",
    "partition.frame_ms_p50",
    "partition.single_frame_ms_p50",
    "partition.shard_efficiency",
    "partition.cut_bits",
    "partition.barriers",
];

/// Repeats `f` until `min_s` seconds have passed; returns the seconds
/// per repetition.
fn per_rep(min_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || start.elapsed().as_secs_f64() < min_s {
        f();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// `arch`: the golden model over the workload's own tiles.
pub fn golden_layer(tiles: &[Vec<(i64, i64)>], tr: &mut Tracer, values: &mut Values) {
    for (i, tile) in tiles.iter().enumerate().take(2048) {
        let span = tr.begin("arch.golden_tile", None, Some(i as u64));
        std::hint::black_box(golden_tile(std::hint::black_box(tile)));
        tr.end(span);
    }
    let us: Vec<f64> = tr.durations_ns("arch.golden_tile").iter().map(|ns| ns / 1e3).collect();
    values.set("arch.golden_tile_us_p50", median(&us).expect("tiles"));
    let pairs: usize = tiles.iter().map(Vec::len).sum();
    let secs = per_rep(0.2, || {
        for tile in tiles {
            std::hint::black_box(golden_tile(std::hint::black_box(tile)));
        }
    });
    values.set("arch.golden_pairs_per_s", pairs as f64 / secs);
}

/// `rtl`: an engine of the workload's design and backend, driven
/// directly. `tiles` are the workload's stimulus; `flush` the zero
/// cycles that drain the pipeline after each tile.
pub fn rtl_layer<E: Engine>(
    design: Design,
    tiles: &[Vec<(i64, i64)>],
    flush: usize,
    tr: &mut Tracer,
    values: &mut Values,
) -> Res<Audit> {
    let netlist = design.build().map_err(|e| e.to_string())?.netlist;
    for _ in 0..5 {
        let span = tr.begin("rtl.from_netlist", None, None);
        let engine = E::from_netlist(netlist.clone()).map_err(|e| e.to_string())?;
        tr.end(span);
        drop(engine);
    }
    let build_ms: Vec<f64> =
        tr.durations_ns("rtl.from_netlist").iter().map(|ns| ns / 1e6).collect();
    values.set("rtl.build_ms", median(&build_ms).expect("builds"));

    // One lane per cycle, as the executor drives it.
    let mut engine = E::from_netlist(netlist.clone()).map_err(|e| e.to_string())?;
    let stream: Vec<(i64, i64)> = tiles.iter().flatten().copied().take(20_000).collect();
    let span = tr.begin("rtl.tick_loop", None, None);
    let mut sink = 0i64;
    for &(e, o) in &stream {
        engine.set_input("in_even", e).map_err(|e| e.to_string())?;
        engine.set_input("in_odd", o).map_err(|e| e.to_string())?;
        engine.try_tick().map_err(|e| e.to_string())?;
        sink = sink.wrapping_add(engine.peek("low").map_err(|e| e.to_string())?);
        sink = sink.wrapping_add(engine.peek("high").map_err(|e| e.to_string())?);
    }
    tr.end(span);
    std::hint::black_box(sink);
    values.set("rtl.tick_ns", tr.durations_ns("rtl.tick_loop")[0] / stream.len() as f64);

    let snap = engine.snapshot();
    for _ in 0..200 {
        let span = tr.begin("rtl.snapshot", None, None);
        std::hint::black_box(engine.snapshot());
        tr.end(span);
        let span = tr.begin("rtl.restore", None, None);
        engine.restore(&snap).map_err(|e| e.to_string())?;
        tr.end(span);
    }
    let us = |name| tr.durations_ns(name).iter().map(|ns| ns / 1e3).collect::<Vec<f64>>();
    values.set("rtl.snapshot_us", median(&us("rtl.snapshot")).expect("snapshots"));
    values.set("rtl.restore_us", median(&us("rtl.restore")).expect("restores"));

    kernel::<E>(netlist, tiles, flush, values)
}

/// All lanes full: every lane runs one of the workload's tiles plus its
/// flush, so the roofline has the workload's own stimulus length. The
/// first block is checked bit-exactly against the golden model.
fn kernel<E: Engine>(
    netlist: dwt_rtl::netlist::Netlist,
    tiles: &[Vec<(i64, i64)>],
    flush: usize,
    values: &mut Values,
) -> Res<Audit> {
    let mut engine = E::from_netlist(netlist).map_err(|e| e.to_string())?;
    let lanes = engine.caps().lanes;
    let p = tiles[0].len();
    let latency = flush - 2;
    let mut block = 0usize;
    let mut run_block = |engine: &mut E, check: bool| -> Res<Audit> {
        let lane_tiles: Vec<&Vec<(i64, i64)>> =
            (0..lanes).map(|l| &tiles[(block * lanes + l) % tiles.len()]).collect();
        block += 1;
        let mut low = vec![Vec::with_capacity(p); lanes];
        let mut high = vec![Vec::with_capacity(p); lanes];
        let (mut evens, mut odds) = (vec![0i64; lanes], vec![0i64; lanes]);
        for t in 0..p + flush {
            for ((e, o), tile) in evens.iter_mut().zip(odds.iter_mut()).zip(&lane_tiles) {
                (*e, *o) = tile.get(t).copied().unwrap_or((0, 0));
            }
            engine.set_input_lanes("in_even", &evens).map_err(|e| e.to_string())?;
            engine.set_input_lanes("in_odd", &odds).map_err(|e| e.to_string())?;
            engine.try_tick().map_err(|e| e.to_string())?;
            if t >= latency && t - latency < p {
                let (lo, hi) = (
                    engine.peek_lanes("low").map_err(|e| e.to_string())?,
                    engine.peek_lanes("high").map_err(|e| e.to_string())?,
                );
                for l in 0..lanes {
                    low[l].push(lo[l]);
                    high[l].push(hi[l]);
                }
            }
        }
        let mut audit = Audit::default();
        if check {
            for l in 0..lanes {
                let (gl, gh) = golden_tile(lane_tiles[l]);
                audit.record(low[l] == gl && high[l] == gh, true);
            }
        }
        std::hint::black_box((low, high));
        Ok(audit)
    };
    let audit = run_block(&mut engine, true)?;
    let secs = per_rep(0.3, || {
        run_block(&mut engine, false).expect("kernel block");
    });
    values.set("rtl.kernel_pairs_per_s", (lanes * p) as f64 / secs);
    Ok(audit)
}

/// Builds the TMR spare, as rung 3 does on every escalation.
pub fn spare_build<E: Engine>(design: Design, tr: &mut Tracer, values: &mut Values) -> Res<()> {
    let spare = design.build_hardened(Hardening::Tmr).map_err(|e| e.to_string())?.netlist;
    for _ in 0..5 {
        let span = tr.begin("rtl.spare_from_netlist", None, None);
        let engine = E::from_netlist(spare.clone()).map_err(|e| e.to_string())?;
        tr.end(span);
        drop(engine);
    }
    let ms: Vec<f64> =
        tr.durations_ns("rtl.spare_from_netlist").iter().map(|ns| ns / 1e6).collect();
    values.set("rtl.spare_build_ms", median(&ms).expect("builds"));
    Ok(())
}
