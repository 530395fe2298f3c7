//! Pool campaign: a chaos scenario against the fault-tolerant
//! multi-lane tile scheduler, swept over offered load.
//!
//! The default scenario exercises every defence at once — a baseline
//! SEU drizzle with common-mode burst windows, lane 0 permanently stuck
//! shortly into the run, lane 1 at double cycle cost, and a per-tile
//! deadline — while the same seeded workload is offered at several tile
//! inter-arrival gaps. Each sweep point reports offered load versus
//! hardware goodput, availability, p50/p99 commit latency in cycles,
//! shed tiles, deadline misses, breaker transitions and SDC escapes; a
//! per-lane summary of the heaviest-load point shows where breakers and
//! health scores ended up. Markdown on stdout, full per-tile JSON via
//! `--json`.
//!
//! Usage: `pool_campaign [--lanes N] [--design N] [--pairs N] [--tile N]
//! [--sweep A,B,C] [--rate R] [--stuck F] [--common-mode F]
//! [--burst PERIOD,LEN,FACTOR] [--no-burst] [--stuck-lane LANE,CYCLE]
//! [--no-stuck-lane] [--slow-lane LANE,FACTOR] [--no-slow-lane]
//! [--deadline N] [--no-deadline] [--max-redispatch N] [--no-dwc]
//! [--seed S] [--backend event|compiled|jit] [--json PATH] [--max-sdc N]
//! [--min-availability F]`
//!
//! With `--max-sdc N` the process exits nonzero when total SDC escapes
//! across the sweep exceed N; with `--min-availability F` it exits
//! nonzero when any sweep point's availability falls below F. The CI
//! smoke job gates on both. `--backend compiled` runs every lane on the
//! levelized bit-sliced engine instead of the event-driven simulator.
//!
//! Exit codes: 0 success, 1 gate failure, 2 usage error.

use dwt_bench::campaign::{
    flag_value, parse_design, parse_list, parse_parts, unknown_flag, CampaignArgs, UsageError,
};
use dwt_bench::pool::{
    min_availability, pool_json, pool_lane_markdown, pool_markdown, run_pool_campaign,
    total_sdc_escapes, PoolCampaignConfig,
};
use dwt_pool::chaos::{BurstConfig, SlowLaneSpec, StuckLaneSpec};
use dwt_rtl::engine::{BackendRunner, Engine};

fn parse_cfg(shared: &CampaignArgs) -> Result<PoolCampaignConfig, UsageError> {
    let mut cfg = PoolCampaignConfig::default();
    if let Some(seed) = shared.seed {
        cfg.seed = seed;
        cfg.pool.chaos.seed = seed;
    }
    let mut args = shared.rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--lanes" => cfg.pool.lanes = flag_value(&mut args, "--lanes", "count")?,
            "--design" => {
                let raw: String = flag_value(&mut args, "--design", "design number")?;
                cfg.pool.design = parse_design("--design", &raw)?;
            }
            "--pairs" => cfg.pairs = flag_value(&mut args, "--pairs", "count")?,
            "--tile" => cfg.pool.tile_pairs = flag_value(&mut args, "--tile", "count")?,
            "--sweep" => {
                let raw: String = flag_value(&mut args, "--sweep", "gap list")?;
                cfg.interarrivals = parse_list("--sweep", &raw)?;
            }
            "--rate" => cfg.pool.chaos.seu_rate = flag_value(&mut args, "--rate", "rate")?,
            "--stuck" => {
                cfg.pool.chaos.stuck_fraction = flag_value(&mut args, "--stuck", "fraction")?;
            }
            "--common-mode" => {
                cfg.pool.chaos.common_mode = flag_value(&mut args, "--common-mode", "fraction")?;
            }
            "--burst" => {
                let raw: String = flag_value(&mut args, "--burst", "period,len,factor")?;
                let p: Vec<f64> = parse_parts("--burst", &raw, 3)?;
                cfg.pool.chaos.burst =
                    Some(BurstConfig { period: p[0] as u64, len: p[1] as u64, factor: p[2] });
            }
            "--no-burst" => cfg.pool.chaos.burst = None,
            "--stuck-lane" => {
                let raw: String = flag_value(&mut args, "--stuck-lane", "lane,cycle")?;
                let p: Vec<u64> = parse_parts("--stuck-lane", &raw, 2)?;
                cfg.pool.chaos.stuck_lanes =
                    vec![StuckLaneSpec { lane: p[0] as usize, from_cycle: p[1] }];
            }
            "--no-stuck-lane" => cfg.pool.chaos.stuck_lanes.clear(),
            "--slow-lane" => {
                let raw: String = flag_value(&mut args, "--slow-lane", "lane,factor")?;
                let p: Vec<f64> = parse_parts("--slow-lane", &raw, 2)?;
                cfg.pool.chaos.slow_lanes =
                    vec![SlowLaneSpec { lane: p[0] as usize, factor: p[1] }];
            }
            "--no-slow-lane" => cfg.pool.chaos.slow_lanes.clear(),
            "--deadline" => {
                cfg.pool.admission.deadline_cycles =
                    Some(flag_value(&mut args, "--deadline", "cycles")?);
            }
            "--no-deadline" => cfg.pool.admission.deadline_cycles = None,
            "--max-redispatch" => {
                cfg.pool.max_redispatch = flag_value(&mut args, "--max-redispatch", "count")?;
            }
            "--no-dwc" => cfg.pool.dwc = false,
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(cfg)
}

fn run<E: Engine>(shared: &CampaignArgs, cfg: &PoolCampaignConfig) {
    let chaos = &cfg.pool.chaos;
    println!(
        "Pool campaign — {} lanes of {}, {} pairs in {}-pair tiles, seed {}, backend {}",
        cfg.pool.lanes,
        cfg.pool.design.name(),
        cfg.pairs,
        cfg.pool.tile_pairs,
        cfg.seed,
        shared.backend.name()
    );
    println!(
        "chaos: SEU rate {}/cycle (stuck fraction {}, common mode {}), burst {}, \
         stuck lanes {:?}, slow lanes {:?}",
        chaos.seu_rate,
        chaos.stuck_fraction,
        chaos.common_mode,
        chaos.burst.map_or_else(
            || "off".to_owned(),
            |b| format!("{}x for {}/{}cy", b.factor, b.len, b.period)
        ),
        chaos.stuck_lanes.iter().map(|s| s.lane).collect::<Vec<_>>(),
        chaos.slow_lanes.iter().map(|s| s.lane).collect::<Vec<_>>(),
    );
    println!(
        "deadline: {}; DWC {}; sweep gaps {:?}cy",
        cfg.pool
            .admission
            .deadline_cycles
            .map_or_else(|| "none".to_owned(), |d| format!("{d}cy/tile")),
        if cfg.pool.dwc { "on" } else { "OFF" },
        cfg.interarrivals
    );
    println!();

    let rows = run_pool_campaign::<E>(cfg).unwrap_or_else(|e| panic!("campaign: {e}"));
    print!("{}", pool_markdown(&rows));
    println!();
    println!(
        "gap = tile inter-arrival; offered/goodput in pairs per pool cycle; \
         avail = hardware uptime (cycle-weighted); lat = commit latency."
    );
    if let Some(heaviest) = rows.last() {
        println!("\nlane state after the heaviest load ({}cy gap):", heaviest.interarrival);
        print!("{}", pool_lane_markdown(heaviest));
    }

    shared.write_json_with(|| pool_json(cfg, &rows));
    shared.enforce_gates(total_sdc_escapes(&rows), Some(min_availability(&rows)));
}

struct Campaign {
    shared: CampaignArgs,
    cfg: PoolCampaignConfig,
}

impl BackendRunner for Campaign {
    type Output = ();

    fn run<E>(self)
    where
        E: Engine + Send + 'static,
        E::Snapshot: Send,
    {
        run::<E>(&self.shared, &self.cfg);
    }
}

fn main() {
    let shared = CampaignArgs::parse();
    let cfg = parse_cfg(&shared).unwrap_or_else(|e| e.exit());
    shared.backend.dispatch(Campaign { shared, cfg });
}
