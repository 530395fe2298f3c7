//! Seeded single-event-upset campaign across the five paper designs and
//! the hardened (TMR / parity) variants of the pipelined ones.
//!
//! For every variant the same seeded stimulus is replayed once per
//! fault, each run upsetting one pseudo-random register bit at one
//! pseudo-random cycle, and the outcome is classified against the
//! fault-free run: **masked**, **detected** (parity variants raise
//! their `fault_detect` port) or **SDC** (silent data corruption).
//! The report pairs each outcome histogram with the variant's mapped
//! LE cost — the area price of lowering the SDC rate.
//!
//! Usage: `fault_campaign [--faults N] [--pairs N] [--seed S]
//! [--backend event|compiled|jit] [--json PATH] [--max-sdc N]` (markdown
//! goes to stdout; `--json` additionally writes the full per-fault
//! record set as JSON — with the seed echoed so a failing campaign can
//! be replayed exactly; `--max-sdc N` makes the process exit nonzero
//! when the *hardened* variants' combined SDC count exceeds N, so CI
//! can gate on the protection claim — TMR masks, parity detects —
//! instead of silently regressing; `--backend compiled` reruns the
//! whole campaign on the levelized bit-sliced engine).
//!
//! Exit codes: 0 success, 1 gate failure, 2 usage error.

use dwt_arch::designs::Design;
use dwt_arch::hardened::HardenedVariant;
use dwt_bench::campaign::{
    campaign_json, flag_value, run_campaign, unknown_flag, CampaignArgs, CampaignConfig, Outcome,
    UsageError,
};
use dwt_rtl::engine::{BackendRunner, Engine};

fn parse_cfg(shared: &CampaignArgs) -> Result<CampaignConfig, UsageError> {
    let mut cfg = CampaignConfig::default();
    if let Some(seed) = shared.seed {
        cfg.seed = seed;
    }
    let mut args = shared.rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--faults" => cfg.faults = flag_value(&mut args, "--faults", "count")?,
            "--pairs" => cfg.pairs = flag_value(&mut args, "--pairs", "count")?,
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(cfg)
}

/// The campaigned variants: every paper design, then the hardened
/// pipelined ones. Returns `(name, datapath, base LEs for Δ)` rows.
fn variants() -> Vec<(String, dwt_arch::datapath::BuiltDatapath, Option<Design>)> {
    let mut rows = Vec::new();
    for d in Design::all() {
        rows.push((d.name().to_owned(), d.build().expect("design build"), None));
    }
    for v in HardenedVariant::all() {
        rows.push((v.name().to_owned(), v.build().expect("hardened build"), Some(v.base())));
    }
    rows
}

fn run<E: Engine>(shared: &CampaignArgs, cfg: &CampaignConfig) {
    println!(
        "Fault-injection campaign — {} register-bit upsets per variant, {} sample pairs, \
         seed {}, backend {}",
        cfg.faults,
        cfg.pairs,
        cfg.seed,
        shared.backend.name()
    );
    println!();
    println!(
        "| {:<18} | {:>5} | {:>6} | {:>7} | {:>6} | {:>8} | {:>3} | {:>8} |",
        "Variant", "LEs", "ΔLE%", "FF bits", "masked", "detected", "SDC", "SDC rate"
    );
    println!("|{0:-<20}|{0:-<7}|{0:-<8}|{0:-<9}|{0:-<8}|{0:-<10}|{0:-<5}|{0:-<10}|", "");

    let mut reports = Vec::new();
    let mut base_les: Vec<(Design, usize)> = Vec::new();
    for (name, built, base) in variants() {
        let report =
            run_campaign::<E>(&name, &built, cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(d) = Design::all().iter().find(|d| d.name() == name) {
            base_les.push((*d, report.les));
        }
        let delta = base
            .and_then(|b| base_les.iter().find(|(d, _)| *d == b))
            .map_or_else(String::new, |(_, les)| {
                format!("{:+.0}", (report.les as f64 / *les as f64 - 1.0) * 100.0)
            });
        println!(
            "| {:<18} | {:>5} | {:>6} | {:>7} | {:>6} | {:>8} | {:>3} | {:>7.1}% |",
            report.variant,
            report.les,
            delta,
            report.register_bits,
            report.count(Outcome::Masked),
            report.count(Outcome::Detected),
            report.count(Outcome::Sdc),
            report.sdc_rate() * 100.0,
        );
        reports.push(report);
    }

    println!();
    println!(
        "TMR masks every sampled upset by majority vote (≈3× FF area + voter LUTs); \
         parity converts SDC into detection for one extra bit per register; \
         the unhardened pipelined designs carry the largest uncovered FF cross-section."
    );

    shared.write_json_with(|| campaign_json(cfg, &reports));

    if shared.max_sdc.is_some() {
        let hardened: usize = reports
            .iter()
            .filter(|r| HardenedVariant::all().iter().any(|v| v.name() == r.variant))
            .map(|r| r.count(Outcome::Sdc))
            .sum();
        println!("\ngating on the hardened variants' combined SDC count:");
        shared.enforce_gates(hardened, None);
    }
}

struct Campaign {
    shared: CampaignArgs,
    cfg: CampaignConfig,
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
