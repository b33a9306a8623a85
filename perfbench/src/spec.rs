//! What the benchmark runs and reports: workloads, metrics, units and
//! bounds. `BENCHMARK.json` is generated from these tables
//! (`perfbench --manifest`), so the manifest and the code cannot drift.

use geonet_sim::telemetry::json::Value;

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 30;

/// A workload: its name and why it was chosen.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// Every workload, in the order they are documented.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "interarea_ab",
        why: "Fig 7 wN interception A/B pairs: beacon deliveries dominate, so the delivery path, \
              verify and LocT/GF are stressed",
    },
    Workload {
        name: "blockage_ab",
        why: "Fig 9 mN ClampRhl blockage A/B pairs: CBF timers, duplicate suppression and a \
              timer-heavy queue, with GF unused",
    },
    Workload {
        name: "interarea_observed",
        why: "the interarea_ab worlds with tracer, telemetry, auditor and topology observer \
              attached, so observer cost shows",
    },
    Workload {
        name: "fig7a_campaign",
        why: "a reduced Fig 7a campaign on the parallel pool: per-run World::new, the job pool \
              and the A/B merge",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A reported metric.
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_wall_ratio", "1", Higher, 0.25),
    e2e("step_p50_ms", "ms", Lower, 0.25),
    e2e("step_p99_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("allocs_per_sim_s", "1/s", Lower, 0.05),
    e2e("alloc_bytes_per_sim_s", "B/s", Lower, 0.05),
    e2e("peak_live_mb", "MB", Lower, 0.1),
];

/// Per-layer metrics, from the traced run and the layer probes.
pub const PER_LAYER: &[Metric] = &[
    layer("sim.events", "count", Lower),
    layer("sim.kernel_self_ms", "ms", Lower),
    layer("sim.queue_peak", "count", Lower),
    layer("traffic.step_self_ms", "ms", Lower),
    layer("traffic.step_p99_us", "us", Lower),
    layer("radio.scan_self_ms", "ms", Lower),
    layer("radio.receivers_per_frame", "count", Lower),
    layer("radio.receivers_into_ns", "ns", Lower),
    layer("world.transmit_self_ms", "ms", Lower),
    layer("world.dispatch_self_ms", "ms", Lower),
    layer("world.frames_on_air", "count", Lower),
    layer("world.bytes_on_air", "B", Lower),
    layer("router.handle_frame_calls", "count", Lower),
    layer("router.handle_frame_self_ms", "ms", Lower),
    layer("router.handle_frame_p99_ns", "ns", Lower),
    layer("router.useful_frac", "1", Higher),
    layer("router.cbf_rebroadcasts", "count", Lower),
    layer("router.gf_unicasts", "count", Lower),
    layer("router.beacon_ns", "ns", Lower),
    layer("router.beacon_allocs", "count", Lower),
    layer("router.dup_gbc_ns", "ns", Lower),
    layer("router.dup_gbc_allocs", "count", Lower),
    layer("security.verify_ns", "ns", Lower),
    layer("security.verify_allocs", "count", Lower),
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.encode_allocs", "count", Lower),
    layer("attack.replays", "count", Higher),
    layer("observe.overhead_frac", "1", Lower),
    layer("observe.audit_checkpoint_us", "us", Lower),
    layer("observe.topo_snapshot_us", "us", Lower),
    layer("observe.trace_events", "count", Lower),
    layer("observe.telemetry_span_ns", "ns", Lower),
    layer("parallel.cpu_util", "1", Higher),
    layer("parallel.runq_wait_s", "s", Lower),
    layer("trace.overhead_frac", "1", Lower),
    layer("trace.additivity_err", "1", Lower),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, then at most 63 letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The member `key` of a JSON object, if `v` is one and has it.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object("").ok()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `s` as a JSON string. Every string the benchmark writes is a static
/// name, unit or reason free of quotes, backslashes and control
/// characters (the tests check), so none needs escaping.
pub fn quote(s: &str) -> String {
    format!("\"{s}\"")
}

fn metric_json(m: &Metric) -> String {
    let better = match m.better {
        Lower => "lower",
        Higher => "higher",
    };
    let bound = m.bound.map(|b| format!(", \"bound\": {b}")).unwrap_or_default();
    format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": \"{better}\"{bound}}}",
        quote(m.name),
        quote(m.unit)
    )
}

/// The `BENCHMARK.json` manifest.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(PER_LAYER.iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use geonet_sim::telemetry::json::parse;

    #[test]
    fn every_name_is_valid_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "invalid name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn units_bounds_and_whys_are_within_limits() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m.unit.bytes().all(
                |c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics have bounds");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(w.why.chars().all(|c| c != '"' && c != '\\' && !c.is_control()), "{}", w.name);
        }
    }

    #[test]
    fn manifest_reparses_with_the_tables_contents() {
        let v = parse(&manifest()).expect("manifest is JSON");
        let list = |key: &str| field(&v, key).expect(key).as_array(key).expect(key).clone();
        let text = |v: &Value, key: &str| match field(v, key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(w, "name"), spec.name);
            assert_eq!(text(w, "why"), spec.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, spec) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(m, "name"), spec.name);
            assert_eq!(text(m, "unit"), spec.unit);
            let bound = field(m, "bound").expect("bound").as_f64("bound").expect("number");
            assert_eq!(Some(bound), spec.bound);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, spec) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(m, "name"), spec.name);
            assert!(field(m, "bound").is_none());
        }
        let secs = field(&v, "run_seconds").expect("run_seconds").as_u64("run_seconds");
        assert_eq!(secs, Ok(u64::from(RUN_SECONDS)));
        assert_eq!(list("paths").len(), 1);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            parse(&committed).expect("committed manifest is JSON"),
            parse(&manifest()).expect("generated manifest is JSON"),
            "regenerate with `perfbench --manifest > BENCHMARK.json`"
        );
    }
}
