//! The metrics the benchmark prints, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the one list of names, units and
//! directions; `BENCHMARK.json` at the repository root must declare the
//! same set (checked by this module's tests). Each per-layer entry also
//! names the end-to-end metric and workload it should move — the
//! ledger a traced run prints beside its values.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// What it should move (per-layer metrics only).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, moves }
}

/// End-to-end metrics: host wall time, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("throughput_pairs_per_s", "pairs/s", "higher", ""),
    m("served_share", "share", "higher", ""),
    m("setup_s", "s", "lower", ""),
    m("peak_rss_mb", "MB", "lower", ""),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// drive reads 0 on that workload (see `moves` for where each applies).
pub const PER_LAYER: &[Metric] = &[
    m("serve.start_s", "s", "lower", "setup_s; serve_tiny_tiles, serve_chaos"),
    m(
        "serve.submit_us_p50",
        "us",
        "lower",
        "bench.latency_p50_ms, bench.latency_p99_ms; serve_tiny_tiles",
    ),
    m(
        "serve.submit_us_p99",
        "us",
        "lower",
        "bench.latency_p50_ms, bench.latency_p99_ms; serve_tiny_tiles",
    ),
    m(
        "serve.server_latency_ms_p99",
        "ms",
        "lower",
        "bench.latency_p99_ms; serve_tiny_tiles, serve_chaos",
    ),
    m(
        "serve.rung_replay_share",
        "share",
        "lower",
        "throughput_pairs_per_s, served_share; serve_chaos",
    ),
    m(
        "serve.rung_tmr_share",
        "share",
        "lower",
        "throughput_pairs_per_s, served_share; serve_chaos",
    ),
    m("serve.golden_share", "share", "lower", "throughput_pairs_per_s, served_share; serve_chaos"),
    m("serve.retries", "count", "lower", "served_share; serve_chaos"),
    m("serve.redispatches", "count", "lower", "served_share; serve_chaos"),
    m("serve.breaker_transitions", "count", "lower", "served_share; serve_chaos"),
    m("serve.kernel_fraction", "share", "higher", "throughput_pairs_per_s; serve_tiny_tiles"),
    m(
        "recover.run_tile_us_p50",
        "us",
        "lower",
        "throughput_pairs_per_s; serve_tiny_tiles, serve_chaos",
    ),
    m(
        "recover.run_tile_us_p99",
        "us",
        "lower",
        "throughput_pairs_per_s; serve_tiny_tiles, serve_chaos",
    ),
    m("recover.useful_cycle_share", "share", "higher", "throughput_pairs_per_s; serve_tiny_tiles"),
    m("recover.recovery_cycle_share", "share", "lower", "throughput_pairs_per_s; serve_chaos"),
    m("recover.replays_per_tile", "replays/tile", "lower", "throughput_pairs_per_s; serve_chaos"),
    m("arch.golden_tile_us_p50", "us", "lower", "throughput_pairs_per_s; serve_tiny_tiles"),
    m("arch.golden_pairs_per_s", "pairs/s", "higher", "none: the software roofline"),
    m("rtl.build_ms", "ms", "lower", "setup_s; serve_chaos, partition_shards"),
    m("rtl.jit_cold_build_s", "s", "lower", "setup_s; serve_tiny_tiles"),
    m("rtl.spare_build_ms", "ms", "lower", "bench.latency_p99_ms; serve_chaos"),
    m("rtl.tick_ns", "ns", "lower", "throughput_pairs_per_s; serve_chaos"),
    m("rtl.snapshot_us", "us", "lower", "throughput_pairs_per_s; serve_chaos, serve_tiny_tiles"),
    m("rtl.restore_us", "us", "lower", "throughput_pairs_per_s; serve_chaos, serve_tiny_tiles"),
    m("rtl.kernel_pairs_per_s", "pairs/s", "higher", "none: denominator of serve.kernel_fraction"),
    m("partition.cut_ms", "ms", "lower", "setup_s; partition_shards"),
    m(
        "partition.frame_ms_p50",
        "ms",
        "lower",
        "throughput_pairs_per_s, bench.latency_p50_ms; partition_shards",
    ),
    m(
        "partition.single_frame_ms_p50",
        "ms",
        "lower",
        "throughput_pairs_per_s, bench.latency_p50_ms; partition_shards",
    ),
    m("partition.shard_efficiency", "share", "higher", "throughput_pairs_per_s; partition_shards"),
    m("partition.cut_bits", "bits", "lower", "none unless the cut changes; partition_shards"),
    m(
        "partition.barriers",
        "count",
        "lower",
        "none unless the cut or interval changes; partition_shards",
    ),
    m(
        "bench.latency_p50_ms",
        "ms",
        "lower",
        "none: open-loop latency (partition: frame time), host-bound, so it has no bound",
    ),
    m(
        "bench.latency_p99_ms",
        "ms",
        "lower",
        "none: open-loop latency (partition: frame time), host-bound, so it has no bound",
    ),
    m("bench.generator_lag_ms_p99", "ms", "lower", "none: validity of the open loop"),
    m("bench.trace_overhead_share", "share", "lower", "none: cost of the traced run"),
];

/// The declared set for a run mode.
pub fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values gathered by one run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name`. Panics on a name neither list declares: every
    /// printed name must be in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders the result line for the mode's declared set. Errors on a
    /// missing or non-finite value.
    pub fn result_line(
        &self,
        trace: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = String::new();
        for (i, m) in declared(trace).iter().enumerate() {
            let v =
                self.get(m.name).ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(body, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
        ))
    }

    /// One human-readable line per declared metric of the mode.
    pub fn report(&self, trace: bool) -> String {
        let mut out = String::new();
        for m in declared(trace) {
            let v = self.get(m.name).unwrap_or(f64::NAN);
            let _ = write!(out, "  {:<30} {:>16.6} {:<12} {:<6}", m.name, v, m.unit, m.better);
            if !m.moves.is_empty() {
                let _ = write!(out, " -> {}", m.moves);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every entry in one array of
    /// `BENCHMARK.json`. The file is flat enough that scanning for
    /// `{...}` objects inside the array suffices.
    fn declared_in_json(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).map(|i| i + f.len() + 2);
            at.map_or_else(String::new, |i| {
                let rest = &obj[i..];
                let q = rest.find('"').expect("value") + 1;
                rest[q..q + rest[q..].find('"').expect("close")].to_owned()
            })
        };
        json[open + 1..close]
            .split('}')
            .filter(|o| o.contains("\"name\""))
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn printed_names_match_benchmark_json_both_ways() {
        let json = benchmark_json();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut in_json = declared_in_json(&json, key);
            let mut in_code: Vec<(String, String, String)> = list
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
                .collect();
            in_json.sort();
            in_code.sort();
            assert_eq!(in_code, in_json, "{key}: code and BENCHMARK.json disagree");
        }
    }

    #[test]
    fn result_line_carries_every_declared_metric_and_nothing_else() {
        for trace in [false, true] {
            let mut v = Values::default();
            for (i, m) in declared(trace).iter().enumerate() {
                v.set(m.name, 1.5 + i as f64);
            }
            let line = v.result_line(trace, true, 10, 0).unwrap();
            for m in END_TO_END.iter().chain(PER_LAYER) {
                let shown = line.contains(&format!("\"{}\": {{", m.name));
                assert_eq!(shown, declared(trace).iter().any(|d| d.name == m.name), "{}", m.name);
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        }
        assert!(Values::default().result_line(false, true, 1, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn an_undeclared_name_is_refused() {
        Values::default().set("made_up", 1.0);
    }
}
