//! Metric names, units and the final result line.

use serde_json::Value;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("simcore.events", "count"),
    ("simcore.pending_mean", "count"),
    ("simcore.pending_max", "count"),
    ("simcore.hold_ns_per_op", "ns"),
    ("netsim.loop_self_ns_per_event", "ns"),
    ("netsim.qdisc.enqueue_calls", "count"),
    ("netsim.qdisc.enqueue_ns", "ns"),
    ("netsim.qdisc.dequeue_calls", "count"),
    ("netsim.qdisc.dequeue_ns", "ns"),
    ("netsim.qdisc.accept_ratio", "ratio"),
    ("core.host.on_timer_calls", "count"),
    ("core.host.on_packet_calls", "count"),
    ("core.host.self_ns", "ns"),
    ("core.sink.on_packet_calls", "count"),
    ("core.sink.self_ns", "ns"),
    ("core.meter.self_ns", "ns"),
    ("core.admit_ratio", "ratio"),
    ("core.probes_per_decision", "count"),
    ("traffic.next_packet_ns.exp1", "ns"),
    ("traffic.next_packet_ns.exp2", "ns"),
    ("traffic.next_packet_ns.poo1", "ns"),
    ("traffic.next_packet_ns.starwars", "ns"),
    ("tcpsim.sender.self_ns", "ns"),
    ("tcpsim.sink.self_ns", "ns"),
    ("tcpsim.retransmits", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.export_s", "s"),
    ("fluid.point_ms", "ms"),
    ("bench.pool.busy_frac", "ratio"),
    ("bench.cell_s.p50", "s"),
    ("bench.cell_s.max", "s"),
    ("bench.output.save_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalog` with its unit. Panics if `values` names a metric outside the
/// catalog or misses one, or a value is not finite: the printed set must
/// be exactly the declared one.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    for (name, _) in values {
        assert!(
            catalog.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let metrics: Vec<(String, Value)> = catalog
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            assert!(v.is_finite(), "metric {name} = {v}");
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(v)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted.max(1))),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn section(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str).expect("name");
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn printed_names_are_declared_with_their_units() {
        let doc = declared();
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = section(&doc, key);
            assert_eq!(listed.len(), catalog.len(), "{key}: count differs");
            for &(name, unit) in catalog {
                assert!(valid_name(name), "bad metric name {name}");
                assert!(
                    listed.iter().any(|(n, u)| n == name && u == unit),
                    "{key}: {name} [{unit}] not declared in BENCHMARK.json"
                );
            }
        }
    }

    #[test]
    fn declared_workloads_are_the_benchmark_workloads() {
        let doc = declared();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        let v = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        result_line(true, 1, 0, &END_TO_END, &[("bogus", 1.0)]);
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("core.host.self_ns"));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }
}
