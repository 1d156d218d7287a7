//! Every metric the benchmark reports, by name, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same
//! names; a self-test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, direction)`.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// What a user of the simulator sees; reported by `--trace 0` runs.
pub const END_TO_END: [MetricDef; 6] = [
    ("setup_s", "s", Lower),
    ("beats_per_s", "beats/s", Higher),
    ("beat_ms_p50", "ms", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("bytes_per_beat", "bytes", Lower),
    ("msgs_per_beat", "envelopes", Lower),
];

/// Single layers (crate.module); reported by `--trace 1` runs. Times are
/// self time per timed beat.
pub const PER_LAYER: [MetricDef; 51] = [
    ("sim.runner.self_ms", "ms", Lower),
    ("sim.runner.ns_per_envelope", "ns", Lower),
    ("sim.step.tail_ms", "ms", Lower),
    ("sim.step.max_ms", "ms", Lower),
    ("sim.wire.len_ns_per_msg", "ns", Lower),
    ("sim.wire.encode_ns_per_byte", "ns", Lower),
    ("sim.wire.decode_ns_per_byte", "ns", Lower),
    ("sim.envelope.clone_ns_per_msg", "ns", Lower),
    ("sim.byz_msgs_per_beat", "envelopes", Lower),
    ("sim.phantom_msgs", "count", Lower),
    ("sim.forged_dropped", "count", Lower),
    ("core.clock.self_ms", "ms", Lower),
    ("core.pipeline.self_ms", "ms", Lower),
    ("core.drive.self_ms", "ms", Lower),
    ("core.scenario.start_us_p50", "us", Lower),
    ("core.scenario.report_us_p50", "us", Lower),
    ("core.sync.converged_at", "beats", Lower),
    ("core.sync.mean_beats_to_sync", "beats", Lower),
    ("core.bd.quorum_tick_ratio", "ratio", Higher),
    ("core.bd.late_arrivals_per_beat", "count", Lower),
    ("core.bd.dropped_invalid_per_beat", "count", Lower),
    ("coin.deal.send_ms", "ms", Lower),
    ("coin.deal.recv_ms", "ms", Lower),
    ("coin.echo.send_ms", "ms", Lower),
    ("coin.echo.recv_ms", "ms", Lower),
    ("coin.vote.send_ms", "ms", Lower),
    ("coin.vote.recv_ms", "ms", Lower),
    ("coin.recover.send_ms", "ms", Lower),
    ("coin.recover.recv_ms", "ms", Lower),
    ("coin.relay.send_ms", "ms", Lower),
    ("coin.relay.recv_ms", "ms", Lower),
    ("coin.spawn_ms", "ms", Lower),
    ("coin.instances_per_beat", "count", Lower),
    ("coin.decode.codewords_per_beat", "count", Lower),
    ("coin.decode.batches_per_beat", "count", Lower),
    ("coin.alloc.storage_builds", "count", Lower),
    ("coin.alloc.decoder_builds", "count", Lower),
    ("coin.alloc.decoder_hit_ratio", "ratio", Higher),
    ("coin.agreement_rate", "ratio", Higher),
    ("coin.p0", "ratio", Higher),
    ("coin.p1", "ratio", Higher),
    ("field.poly.eval_ns", "ns", Lower),
    ("field.bivariate.row_ns", "ns", Lower),
    ("field.bivariate.deal_ns", "ns", Lower),
    ("field.decode.clean_ns_per_codeword", "ns", Lower),
    ("field.decode.errors_ns_per_codeword", "ns", Lower),
    ("field.decoder.build_us", "us", Lower),
    ("baselines.share_pct", "%", Lower),
    ("core.bd.share_pct", "%", Lower),
    ("coin.share_pct", "%", Lower),
    ("trace.overhead_pct", "%", Lower),
];

/// Named values of one run, in table order, every metric present (a
/// metric whose layer the workload never calls reads 0).
#[derive(Debug, Clone)]
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Values {
    /// All-zero values for a metric table.
    pub fn zeroed(defs: &'static [MetricDef]) -> Self {
        Values {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such metric — a typo in this program.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.0 == name)
            .unwrap_or_else(|| panic!("no metric named {name}"));
        self.values[i] = value;
    }

    /// `(name, unit, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, &v)| (d.0, d.1, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// `BENCHMARK.json` at the repository root is the contract the
    /// benchmark is run by: it must name exactly the metrics and workloads
    /// this program reports, with these units and directions.
    #[test]
    fn benchmark_json_names_what_this_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            contract
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.as_str().to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = contract
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        for m in contract.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound), "{m:?}");
        }
    }
}
