//! Recovery-runtime campaign: Poisson-arrival SEUs against the
//! checkpointed detect–rollback–replay executor, across Designs 1–5.
//!
//! Each design streams the same seeded stimulus tile by tile while
//! upsets strike at the configured mean rate. Detection is online
//! (duplication-with-comparison against the golden model, plus the
//! watchdog's event budget); on detection the tile climbs the
//! degradation ladder (rollback + replay → TMR spare → software golden
//! fallback). The report gives availability, throughput degradation,
//! mean detection latency, per-rung tile counts and SDC escapes, as a
//! markdown table on stdout and optionally full per-tile JSON.
//!
//! Usage: `recovery_campaign [--pairs N] [--tile N] [--rate R]
//! [--stuck F] [--common-mode F] [--seed S] [--max-replays N]
//! [--event-cap N] [--no-dwc] [--backend event|compiled|jit] [--json PATH]
//! [--max-sdc N]`
//!
//! With `--max-sdc N` the process exits nonzero when total SDC escapes
//! exceed N — the CI smoke job gates on `--max-sdc 0` with DWC on.
//! `--backend compiled` runs every executor on the levelized
//! bit-sliced engine instead of the event-driven simulator.
//!
//! Exit codes: 0 success, 1 gate failure, 2 usage error.

use dwt_bench::campaign::{flag_value, unknown_flag, CampaignArgs, UsageError};
use dwt_bench::recovery::{
    recovery_json, recovery_markdown, run_recovery_campaign, total_sdc_escapes,
    RecoveryCampaignConfig,
};
use dwt_rtl::engine::{BackendRunner, Engine};

fn parse_cfg(shared: &CampaignArgs) -> Result<RecoveryCampaignConfig, UsageError> {
    let mut cfg = RecoveryCampaignConfig::default();
    if let Some(seed) = shared.seed {
        cfg.seed = seed;
    }
    let mut args = shared.rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--pairs" => cfg.pairs = flag_value(&mut args, "--pairs", "count")?,
            "--tile" => cfg.tile_pairs = flag_value(&mut args, "--tile", "count")?,
            "--rate" => cfg.seu_rate = flag_value(&mut args, "--rate", "rate")?,
            "--stuck" => cfg.stuck_fraction = flag_value(&mut args, "--stuck", "fraction")?,
            "--common-mode" => {
                cfg.common_mode = flag_value(&mut args, "--common-mode", "fraction")?;
            }
            "--max-replays" => {
                cfg.max_replays = flag_value(&mut args, "--max-replays", "count")?;
            }
            "--event-cap" => {
                cfg.event_cap = Some(flag_value(&mut args, "--event-cap", "count")?);
            }
            "--no-dwc" => cfg.dwc = false,
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(cfg)
}

fn run<E: Engine>(shared: &CampaignArgs, cfg: &RecoveryCampaignConfig) {
    println!(
        "Recovery campaign — {} pairs in {}-pair tiles, SEU rate {}/cycle \
         (stuck fraction {}, common mode {}), DWC {}, seed {}, backend {}",
        cfg.pairs,
        cfg.tile_pairs,
        cfg.seu_rate,
        cfg.stuck_fraction,
        cfg.common_mode,
        if cfg.dwc { "on" } else { "OFF" },
        cfg.seed,
        shared.backend.name()
    );
    println!();

    let rows = run_recovery_campaign::<E>(cfg).unwrap_or_else(|e| panic!("campaign: {e}"));
    print!("{}", recovery_markdown(&rows));
    println!();
    println!(
        "avail = hardware uptime (nominal cycles served by a hardware rung over \
         nominal + recovery); degrade = extra cycles per nominal cycle; \
         det lat = mean cycles from attempt start to first detection."
    );

    shared.write_json_with(|| recovery_json(cfg, &rows));
    shared.enforce_gates(total_sdc_escapes(&rows), None);
}

struct Campaign {
    shared: CampaignArgs,
    cfg: RecoveryCampaignConfig,
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
