//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--runs N] [--duration SECS] [--seed S] [--jobs N] [--csv]
//!       [--trace PREFIX] [--forensics] [--metrics PREFIX] [--profile]
//!       [--audit PREFIX] [--audit-diff A B] [--check-invariants]
//!       [--topology PREFIX] [--topology-scenario NAME]
//!       [--topology-diff AF ATK] <experiment>...
//! ```
//!
//! Experiments: `table1 table2 fig7a fig7b fig7c fig7d fig7e fig8
//! fig9a fig9b fig9c fig9d fig9e fig9src fig10 fig12a fig12b fig13
//! fig14a fig14b` (`all` runs every one of them), the closed-form model
//! `analysis`, the beyond-the-paper extensions `ext-ack`, `ext-loss` and
//! `ext-mobile`, and the design-choice sweeps `ablations`. An unknown
//! name is rejected before anything runs.
//!
//! Defaults to a reduced scale (5 runs × 100 s); pass `--runs 100
//! --duration 200` for the paper's full scale. Every run prints one
//! progress line to stderr (wall time, events/sec, sim/wall ratio, ETA).
//!
//! `--trace PREFIX` and `--forensics` add a *forensic pass*: one traced,
//! attacked single run per attack family (interception and blockage) at
//! the current duration and seed. `--trace` streams each run's events to
//! `PREFIX.<family>.jsonl` (one JSON object per line — the schema of
//! [`geonet_sim::trace`]); `--forensics` prints the per-run loss
//! attribution table and the busiest nodes' counters.
//!
//! `--metrics PREFIX` and `--profile` add a *telemetry pass*: one
//! attacked inter-area interception run with a
//! [`geonet_sim::telemetry`] registry attached. `--metrics` writes the
//! registry to `PREFIX.metrics.prom` (Prometheus text exposition) and
//! `PREFIX.metrics.json` (round-trippable snapshot); `--profile` prints
//! the hot-path timer table (count, p50/p95/p99/max).
//!
//! `--audit PREFIX` adds an *audit pass*: one baseline and one attacked
//! inter-area interception run at the current duration and seed, each
//! with a [`geonet_sim::audit`] recorder sampling state digests every
//! simulated second. Digest timelines go to
//! `PREFIX.<variant>.audit.json` and the matching event traces to
//! `PREFIX.<variant>.trace.jsonl`. `--audit-diff A B` compares two
//! previously written artifacts, names the first diverging checkpoint
//! and component, and — when sibling `.trace.jsonl` files exist — prints
//! the traced events inside the divergence window. `--check-invariants`
//! replays the tier-1 scenario pairs with an online
//! [`geonet_sim::InvariantChecker`] attached and fails the invocation on
//! the first protocol-invariant violation. With any of these flags the
//! experiment list may be empty.
//!
//! `--topology PREFIX` adds a *topology pass*: one attacker-free and one
//! attacked run of the selected scenario (`--topology-scenario
//! interception`, the default, or `blockage`), each with the
//! [`geonet_sim::topo`] observer and a road-binned
//! [`geonet_scenarios::heatmap`] grid attached. Connectivity snapshots
//! go to `PREFIX.<variant>.topo.json` (round-trippable) and
//! `PREFIX.<variant>.topo.dot` (Graphviz, one graph per snapshot);
//! outcome grids go to `PREFIX.<variant>.heatmap.json` and `.csv`.
//! `--topology-diff AF ATK` reads two such prefixes back and prints the
//! per-bin attacker-free vs. attacked delta table plus the blast-radius
//! report (hot bins, partition time, greedy-local-maximum evidence,
//! displaced articulation points).

use geonet_attack::IntraAreaAttacker;
use geonet_radio::RangeProfile;
use geonet_scenarios::config::Scale;
use geonet_scenarios::driver::Observers;
use geonet_scenarios::forensics::{top_nodes, AttributionReport};
use geonet_scenarios::report::{
    drop_breakdown, render_table, series_to_csv, to_csv, ExperimentRow,
};
use geonet_scenarios::{
    analysis, extensions, impact, interarea, intraarea, mitigation, parallel, progress, safety,
    topology, AbResult, BlastRadiusReport, HeatmapDiff, RoadHeatmap, ScenarioConfig,
};
use geonet_sim::{
    diff_artifacts, shared, shared_auditor, shared_registry, trace_window, AuditArtifact,
    EventCounters, InvariantChecker, InvariantParams, JsonlSink, SharedSink, SimDuration,
    TopoArtifact, TraceRecord, TraceSink, VecSink,
};
use geonet_traffic::IdmParams;
use std::process::ExitCode;

/// Which scenario the `--topology` pass instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopologyScenario {
    Interception,
    Blockage,
}

#[derive(Debug)]
struct Options {
    scale: Scale,
    seed: u64,
    jobs: usize,
    csv: bool,
    trace: Option<String>,
    forensics: bool,
    metrics: Option<String>,
    profile: bool,
    audit: Option<String>,
    audit_diff: Option<(String, String)>,
    check_invariants: bool,
    topology: Option<String>,
    topology_scenario: TopologyScenario,
    topology_diff: Option<(String, String)>,
    experiments: Vec<String>,
}

/// Every experiment name `repro` accepts, paired with whether `all`
/// includes it (the paper's tables and figures, in the order `all` runs
/// them). The help text, the `all` expansion and the parse-time name
/// check all read this table; `run_experiment` has one arm per entry.
const EXPERIMENTS: &[(&str, bool)] = &[
    ("table1", true),
    ("table2", true),
    ("fig7a", true),
    ("fig7b", true),
    ("fig7c", true),
    ("fig7d", true),
    ("fig7e", true),
    ("fig8", true),
    ("fig9a", true),
    ("fig9b", true),
    ("fig9c", true),
    ("fig9d", true),
    ("fig9e", true),
    ("fig9src", true),
    ("fig10", true),
    ("fig12a", true),
    ("fig12b", true),
    ("fig13", true),
    ("fig14a", true),
    ("fig14b", true),
    ("analysis", false),
    ("ext-ack", false),
    ("ext-loss", false),
    ("ext-mobile", false),
    ("ablations", false),
];

/// The names of [`EXPERIMENTS`] that `all` does (`true`) or does not
/// (`false`) include, in table order.
fn experiment_names(in_all: bool) -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().filter(move |(_, a)| *a == in_all).map(|(name, _)| *name)
}

/// One CLI flag: its operands, its help line and example operand
/// values (what the self-documentation test feeds the parser).
struct FlagSpec {
    name: &'static str,
    operands: &'static str,
    group: &'static str,
    help: &'static str,
    // Consumed only by the self-documentation test.
    #[cfg_attr(not(test), allow(dead_code))]
    example: &'static [&'static str],
}

/// Every flag `parse_args_from` accepts, grouped as the help prints
/// them. A flag absent from this table is rejected before the parser
/// ever sees it, so the table *is* the accepted set — the help text is
/// generated from it and can never go stale.
const FLAG_SPECS: &[FlagSpec] = &[
    FlagSpec {
        name: "--runs",
        operands: "N",
        group: "campaign",
        help: "A/B runs per experiment point (default 5)",
        example: &["3"],
    },
    FlagSpec {
        name: "--duration",
        operands: "SECS",
        group: "campaign",
        help: "simulated seconds per run (default 100)",
        example: &["30"],
    },
    FlagSpec {
        name: "--seed",
        operands: "S",
        group: "campaign",
        help: "base RNG seed (default 42)",
        example: &["7"],
    },
    FlagSpec {
        name: "--jobs",
        operands: "N",
        group: "campaign",
        help: "worker threads for a campaign's seeded runs (default: all \
               cores; reports are byte-identical at any N)",
        example: &["2"],
    },
    FlagSpec {
        name: "--csv",
        operands: "",
        group: "campaign",
        help: "emit experiment tables as CSV instead of text",
        example: &[],
    },
    FlagSpec {
        name: "--trace",
        operands: "PREFIX",
        group: "trace",
        help: "write PREFIX.<family>.jsonl event logs (forensic pass)",
        example: &["/tmp/repro-trace"],
    },
    FlagSpec {
        name: "--forensics",
        operands: "",
        group: "trace",
        help: "print per-run loss attribution and busiest-node counters",
        example: &[],
    },
    FlagSpec {
        name: "--metrics",
        operands: "PREFIX",
        group: "metrics",
        help: "write PREFIX.metrics.prom + PREFIX.metrics.json telemetry",
        example: &["/tmp/repro-metrics"],
    },
    FlagSpec {
        name: "--profile",
        operands: "",
        group: "metrics",
        help: "print the hot-path wall-clock timer table",
        example: &[],
    },
    FlagSpec {
        name: "--audit",
        operands: "PREFIX",
        group: "audit",
        help: "write PREFIX.<variant>.audit.json digest timelines plus matching \
               PREFIX.<variant>.trace.jsonl event logs",
        example: &["/tmp/repro-audit"],
    },
    FlagSpec {
        name: "--audit-diff",
        operands: "A B",
        group: "audit",
        help: "compare two audit artifacts; exit nonzero on divergence",
        example: &["a.audit.json", "b.audit.json"],
    },
    FlagSpec {
        name: "--check-invariants",
        operands: "",
        group: "audit",
        help: "replay tier-1 scenarios with the invariant checker",
        example: &[],
    },
    FlagSpec {
        name: "--topology",
        operands: "PREFIX",
        group: "topology",
        help: "run an instrumented attacker-free/attacked pair; write \
               PREFIX.<variant>.topo.json/.topo.dot connectivity snapshots and \
               PREFIX.<variant>.heatmap.json/.csv road-binned outcome grids",
        example: &["/tmp/repro-topo"],
    },
    FlagSpec {
        name: "--topology-scenario",
        operands: "NAME",
        group: "topology",
        help: "scenario for --topology: interception (default) or blockage",
        example: &["blockage"],
    },
    FlagSpec {
        name: "--topology-diff",
        operands: "AF ATK",
        group: "topology",
        help: "diff two --topology prefixes: per-bin delta table + blast-radius report",
        example: &["/tmp/repro-topo.af", "/tmp/repro-topo.atk"],
    },
];

/// Renders the full `--help` text from [`EXPERIMENTS`] and [`FLAG_SPECS`].
fn help_text() -> String {
    use std::fmt::Write as _;
    let wrap = |names: Vec<&str>| {
        names.chunks(10).map(|line| line.join(" ")).collect::<Vec<_>>().join("\n    ")
    };
    let mut out = format!(
        "usage: repro [flags] <experiment>...\n\
         paper experiments (`all` runs every one):\n    {}\n\
         other experiments:\n    {}\n",
        wrap(experiment_names(true).collect()),
        wrap(experiment_names(false).collect()),
    );
    let mut group = "";
    for s in FLAG_SPECS {
        if s.group != group {
            group = s.group;
            let _ = writeln!(out, "{group} flags:");
        }
        let left = if s.operands.is_empty() {
            s.name.to_string()
        } else {
            format!("{} {}", s.name, s.operands)
        };
        let _ = writeln!(out, "  {left:<26} {}", s.help);
    }
    out
}

/// Remembers which `--` flags appeared; a repeated flag is rejected with
/// an error naming it (a duplicate is always a typo for this CLI — the
/// later value would silently win otherwise).
fn note_seen(seen: &mut Vec<String>, flag: &str) -> Result<(), String> {
    if seen.iter().any(|f| f == flag) {
        return Err(format!("duplicate flag {flag}"));
    }
    seen.push(flag.to_string());
    Ok(())
}

fn parse_args_from(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut scale = Scale { runs: 5, duration_s: 100 };
    let mut seed = 42;
    let mut jobs = parallel::available_jobs();
    let mut csv = false;
    let mut trace = None;
    let mut forensics = false;
    let mut metrics = None;
    let mut profile = false;
    let mut audit = None;
    let mut audit_diff = None;
    let mut check_invariants = false;
    let mut topology = None;
    let mut topology_scenario = TopologyScenario::Interception;
    let mut topology_diff = None;
    let mut experiments = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    let mut args = args;
    while let Some(arg) = args.next() {
        if arg.starts_with('-') && arg != "--help" && arg != "-h" {
            // The spec table is the accepted set: anything else is
            // rejected here, so every accepted flag is documented.
            if !FLAG_SPECS.iter().any(|s| s.name == arg) {
                return Err(format!("unknown flag {arg}"));
            }
            note_seen(&mut seen, &arg)?;
        }
        match arg.as_str() {
            "--runs" => {
                scale.runs = args
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--duration" => {
                scale.duration_s = args
                    .next()
                    .ok_or("--duration needs a value")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs: must be at least 1".into());
                }
            }
            "--csv" => csv = true,
            "--trace" => {
                trace = Some(args.next().ok_or("--trace needs a path prefix")?);
            }
            "--forensics" => forensics = true,
            "--metrics" => {
                metrics = Some(args.next().ok_or("--metrics needs a path prefix")?);
            }
            "--profile" => profile = true,
            "--audit" => {
                audit = Some(args.next().ok_or("--audit needs a path prefix")?);
            }
            "--audit-diff" => {
                let a = args.next().ok_or("--audit-diff needs two artifact paths")?;
                let b = args.next().ok_or("--audit-diff needs two artifact paths")?;
                audit_diff = Some((a, b));
            }
            "--check-invariants" => check_invariants = true,
            "--topology" => {
                topology = Some(args.next().ok_or("--topology needs a path prefix")?);
            }
            "--topology-scenario" => {
                let name = args.next().ok_or("--topology-scenario needs a name")?;
                topology_scenario = match name.as_str() {
                    "interception" => TopologyScenario::Interception,
                    "blockage" => TopologyScenario::Blockage,
                    other => {
                        return Err(format!(
                            "--topology-scenario: unknown scenario {other} \
                             (expected interception or blockage)"
                        ))
                    }
                };
            }
            "--topology-diff" => {
                let a = args.next().ok_or("--topology-diff needs two artifact prefixes")?;
                let b = args.next().ok_or("--topology-diff needs two artifact prefixes")?;
                topology_diff = Some((a, b));
            }
            "--help" | "-h" => {
                print!("{}", help_text());
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => {
                if other != "all" && !EXPERIMENTS.iter().any(|(name, _)| *name == other) {
                    return Err(format!("unknown experiment {other} (try `repro --help`)"));
                }
                experiments.push(other.to_string());
            }
        }
    }
    if experiments.is_empty()
        && trace.is_none()
        && !forensics
        && metrics.is_none()
        && !profile
        && audit.is_none()
        && audit_diff.is_none()
        && !check_invariants
        && topology.is_none()
        && topology_diff.is_none()
    {
        return Err("no experiments given (try `repro --help`)".into());
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = experiment_names(true).map(str::to_string).collect();
    }
    Ok(Options {
        scale,
        seed,
        jobs,
        csv,
        trace,
        forensics,
        metrics,
        profile,
        audit,
        audit_diff,
        check_invariants,
        topology,
        topology_scenario,
        topology_diff,
        experiments,
    })
}

/// Writes trace records to `path` as JSONL; errors name the `flag` that
/// asked for the file.
fn write_jsonl(flag: &str, path: &str, records: &[TraceRecord]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{flag} {path}: {e}");
    let file = std::fs::File::create(path).map_err(err)?;
    let mut jsonl = JsonlSink::new(std::io::BufWriter::new(file));
    for r in records {
        jsonl.record(r.at, r.node, &r.event);
    }
    jsonl.into_inner().map_err(err)?;
    Ok(())
}

/// One traced, attacked run per attack family: JSONL dumps for
/// `--trace`, attribution tables and busiest-node counters for
/// `--forensics`.
fn forensic_pass(opts: &Options) -> Result<(), String> {
    let cfg = ScenarioConfig::paper_dsrc_default()
        .with_duration(geonet_sim::SimDuration::from_secs(opts.scale.duration_s));
    for family in ["interarea", "intraarea"] {
        let sink = shared(VecSink::new());
        // The attacker's link-layer address, where one shows up in the
        // evidence: the blockage attacker replays under its pseudonym;
        // the interception attacker replays beacons verbatim and never
        // transmits under a name of its own.
        let attacker = match family {
            "interarea" => {
                let traced = Observers::traced(sink.clone());
                interarea::drive(&cfg.with_attack_range(486.0), true, opts.seed, traced, |_, _| {});
                None
            }
            _ => {
                let traced = Observers::traced(sink.clone());
                intraarea::drive(&cfg.with_attack_range(500.0), true, opts.seed, traced, |_, _| {});
                Some(IntraAreaAttacker::DEFAULT_PSEUDONYM.to_u64())
            }
        };
        let records = sink.borrow().records().to_vec();
        if let Some(prefix) = &opts.trace {
            let path = format!("{prefix}.{family}.jsonl");
            write_jsonl("--trace", &path, &records)?;
            eprintln!("# trace: {} events -> {path}", records.len());
        }
        if opts.forensics {
            println!("Forensics — one attacked {family} run, seed {}", opts.seed);
            println!("{}", AttributionReport::build(&records, attacker));
            let mut totals = EventCounters::default();
            for r in &records {
                totals.record(&r.event);
            }
            println!("{}", drop_breakdown(&format!("router drops by reason ({family})"), &totals));
            println!("busiest nodes:");
            for (node, counters, total) in top_nodes(&records, 5) {
                let summary: Vec<String> = counters
                    .top_counters()
                    .into_iter()
                    .take(4)
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                println!("  node {node:>4} {total:>7} events  {}", summary.join(" "));
            }
            println!();
        }
    }
    Ok(())
}

/// One attacked inter-area interception run with a telemetry registry
/// attached, feeding `--metrics` exporters and the `--profile` table.
fn telemetry_pass(opts: &Options) -> Result<(), String> {
    let registry = shared_registry();
    let cfg = ScenarioConfig::paper_dsrc_default()
        .with_attack_range(486.0)
        .with_duration(SimDuration::from_secs(opts.scale.duration_s));
    progress::begin_setting("telemetry", 1);
    let t0 = std::time::Instant::now();
    let metered = Observers { telemetry: Some(registry.clone()), ..Observers::default() };
    let run = interarea::drive(&cfg, true, opts.seed, metered, |_, _| {});
    let (bins, events) = (interarea::outcomes_to_bins(&run.outcomes, cfg.duration), run.events);
    let wall = t0.elapsed().as_secs_f64();
    {
        let mut reg = registry.borrow_mut();
        reg.add("sim_events_total", events);
        reg.set_gauge("run_wall_seconds", wall);
        if wall > 0.0 {
            reg.set_gauge("sim_events_per_sec", events as f64 / wall);
            reg.set_gauge("sim_wall_ratio", cfg.duration.as_secs_f64() / wall);
        }
        if let Some(rate) = bins.overall_rate() {
            reg.set_gauge("attacked_reception_rate", rate);
        }
        // Whole-invocation totals: covers any experiments that ran before
        // this pass, plus the metered run itself.
        if let Some(s) = progress::summary() {
            reg.add("campaign_runs_total", s.runs);
            reg.add("campaign_events_total", s.events);
            if let Some(eps) = s.events_per_sec() {
                reg.set_gauge("campaign_events_per_sec", eps);
            }
            if let Some(r) = s.sim_wall_ratio() {
                reg.set_gauge("campaign_sim_wall_ratio", r);
            }
        }
    }
    let snap = registry.borrow().snapshot();
    if let Some(prefix) = &opts.metrics {
        let prom_path = format!("{prefix}.metrics.prom");
        std::fs::write(&prom_path, snap.to_prometheus())
            .map_err(|e| format!("--metrics {prom_path}: {e}"))?;
        let json_path = format!("{prefix}.metrics.json");
        std::fs::write(&json_path, snap.to_json())
            .map_err(|e| format!("--metrics {json_path}: {e}"))?;
        eprintln!("# metrics: {prom_path}, {json_path}");
    }
    if opts.profile {
        let us = |ns: Option<u64>| match ns {
            Some(v) => format!("{:.1}", v as f64 / 1e3),
            None => "-".into(),
        };
        println!(
            "Hot-path profile — one attacked inter-area run, seed {}, {} s sim",
            opts.seed, opts.scale.duration_s
        );
        println!(
            "{:<26} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "timer", "count", "p50 µs", "p95 µs", "p99 µs", "max µs"
        );
        for name in snap.histogram_names() {
            if !name.ends_with("_ns") {
                continue;
            }
            let h = snap.histogram(name).expect("name from snapshot");
            println!(
                "{:<26} {:>10} {:>9} {:>9} {:>9} {:>9}",
                name,
                h.count(),
                us(h.p50()),
                us(h.p95()),
                us(h.p99()),
                us(Some(h.max())),
            );
        }
        println!();
    }
    Ok(())
}

/// Two audited inter-area interception runs — baseline and attacked —
/// at the current duration and seed: digest timelines to
/// `PREFIX.<variant>.audit.json`, matching event traces to
/// `PREFIX.<variant>.trace.jsonl` (what `--audit-diff` joins against).
fn audit_pass(opts: &Options, prefix: &str) -> Result<(), String> {
    let cfg = ScenarioConfig::paper_dsrc_default()
        .with_attack_range(486.0)
        .with_duration(SimDuration::from_secs(opts.scale.duration_s));
    for (variant, attacked) in [("baseline", false), ("attacked", true)] {
        let sink = shared(VecSink::new());
        let auditor = shared_auditor(SimDuration::from_secs(1));
        let trace_sink: SharedSink = sink.clone();
        let audited = Observers {
            trace: Some(trace_sink),
            auditor: Some(auditor.clone()),
            ..Observers::default()
        };
        interarea::drive(&cfg, attacked, opts.seed, audited, |_, _| {});
        let artifact = auditor.borrow().to_artifact();
        let audit_path = format!("{prefix}.{variant}.audit.json");
        std::fs::write(&audit_path, artifact.to_json())
            .map_err(|e| format!("--audit {audit_path}: {e}"))?;
        let records = sink.borrow().records().to_vec();
        let trace_path = format!("{prefix}.{variant}.trace.jsonl");
        write_jsonl("--audit", &trace_path, &records)?;
        eprintln!(
            "# audit: {} checkpoints -> {audit_path}, {} events -> {trace_path}",
            artifact.entries.len(),
            records.len()
        );
    }
    Ok(())
}

/// The `.trace.jsonl` written next to an `.audit.json` by `audit_pass`,
/// if the path follows that naming convention.
fn sibling_trace(audit_path: &str) -> Option<String> {
    audit_path.strip_suffix(".audit.json").map(|stem| format!("{stem}.trace.jsonl"))
}

/// How many trace-window events `--audit-diff` prints per side before
/// eliding the rest.
const TRACE_WINDOW_PREVIEW: usize = 20;

/// Loads two digest timelines, reports the first divergence, and — when
/// sibling `.trace.jsonl` files exist next to the artifacts — prints the
/// traced events inside the divergence window. Returns whether the
/// timelines are identical.
fn audit_diff_pass(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<AuditArtifact, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("--audit-diff {path}: {e}"))?;
        AuditArtifact::from_json(&text).map_err(|e| format!("--audit-diff {path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let report = diff_artifacts(&a, &b);
    println!("Audit diff — A = {a_path}, B = {b_path}");
    print!("{report}");
    if let Some(d) = &report.first_divergence {
        for (label, path) in [("A", a_path), ("B", b_path)] {
            let Some(trace_path) = sibling_trace(path) else { continue };
            let Ok(text) = std::fs::read_to_string(&trace_path) else { continue };
            let mut records = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.is_empty() {
                    continue;
                }
                records.push(
                    TraceRecord::from_json(line)
                        .map_err(|e| format!("{}:{}: {e}", trace_path, i + 1))?,
                );
            }
            let hits: Vec<&TraceRecord> = trace_window(&records, d.window_start, d.at).collect();
            println!("{label} trace window — {} event(s) from {trace_path}:", hits.len());
            for r in hits.iter().take(TRACE_WINDOW_PREVIEW) {
                println!("  t={} µs node {} {:?}", r.at.as_micros(), r.node, r.event);
            }
            if hits.len() > TRACE_WINDOW_PREVIEW {
                println!("  ... {} more elided", hits.len() - TRACE_WINDOW_PREVIEW);
            }
        }
    }
    Ok(report.identical())
}

/// One attacker-free and one attacked run of the selected scenario,
/// each with the topology observer and a road-binned heatmap attached:
/// connectivity snapshots to `PREFIX.<variant>.topo.json` (round-trip
/// JSON) and `.topo.dot` (Graphviz, one graph per snapshot), outcome
/// grids to `PREFIX.<variant>.heatmap.json` and `.csv`. Interception
/// pairs are correlated first, so the attacked heatmap carries the
/// intercepted packets and their coverage attribution.
fn topology_pass(opts: &Options, prefix: &str) -> Result<(), String> {
    let write = |path: String, text: &str| {
        std::fs::write(&path, text).map_err(|e| format!("--topology {path}: {e}"))
    };
    let duration = SimDuration::from_secs(opts.scale.duration_s);
    let interval = topology::DEFAULT_SNAPSHOT_INTERVAL;
    let cfg = match opts.topology_scenario {
        TopologyScenario::Interception => {
            ScenarioConfig::paper_dsrc_default().with_attack_range(486.0)
        }
        TopologyScenario::Blockage => ScenarioConfig::paper_dsrc_default().with_attack_range(500.0),
    }
    .with_duration(duration);
    let run = |attacked| match opts.topology_scenario {
        TopologyScenario::Interception => {
            topology::run_interarea(&cfg, attacked, opts.seed, interval)
        }
        TopologyScenario::Blockage => topology::run_blockage(&cfg, attacked, opts.seed, interval),
    };
    let af = run(false);
    let mut atk = run(true);
    if opts.topology_scenario == TopologyScenario::Interception {
        let (intercepted, in_cov) = topology::correlate_interception(&af, &mut atk);
        eprintln!(
            "# topology: {intercepted} intercepted packets, \
             {in_cov} last forwarded inside attacker coverage"
        );
    }
    for (variant, r) in [("af", &af), ("atk", &atk)] {
        let base = format!("{prefix}.{variant}");
        write(format!("{base}.topo.json"), &r.topo.to_json())?;
        let mut dot = String::new();
        for s in &r.topo.entries {
            dot.push_str(&s.to_dot());
        }
        write(format!("{base}.topo.dot"), &dot)?;
        write(format!("{base}.heatmap.json"), &r.heatmap.to_json())?;
        write(format!("{base}.heatmap.csv"), &r.heatmap.to_csv())?;
        eprintln!(
            "# topology: {} snapshots -> {base}.topo.json/.dot, \
             {} packets -> {base}.heatmap.json/.csv",
            r.topo.entries.len(),
            r.packets.len()
        );
    }
    Ok(())
}

/// Reads an attacker-free and an attacked `--topology` prefix back and
/// prints the per-bin delta table plus the blast-radius report. The
/// interception counters ride in the attacked heatmap's metadata, so
/// the comparison needs nothing beyond the serialized artifacts.
fn topology_diff_pass(af_prefix: &str, atk_prefix: &str) -> Result<(), String> {
    let read = |path: String| {
        std::fs::read_to_string(&path).map_err(|e| format!("--topology-diff {path}: {e}"))
    };
    let heat = |prefix: &str| -> Result<RoadHeatmap, String> {
        let path = format!("{prefix}.heatmap.json");
        RoadHeatmap::from_json(&read(path.clone())?)
            .map_err(|e| format!("--topology-diff {path}: {e}"))
    };
    let topo = |prefix: &str| -> Result<TopoArtifact, String> {
        let path = format!("{prefix}.topo.json");
        TopoArtifact::from_json(&read(path.clone())?)
            .map_err(|e| format!("--topology-diff {path}: {e}"))
    };
    let (af_heat, atk_heat) = (heat(af_prefix)?, heat(atk_prefix)?);
    let (af_topo, atk_topo) = (topo(af_prefix)?, topo(atk_prefix)?);
    let counter = |key: &str| -> Result<u64, String> {
        match atk_heat.meta().get(key) {
            None => Ok(0),
            Some(v) => v.parse().map_err(|e| format!("--topology-diff: meta {key}={v:?}: {e}")),
        }
    };
    let diff = HeatmapDiff::build(&af_heat, &atk_heat)?;
    let report = BlastRadiusReport::build(
        &af_topo,
        &atk_topo,
        &diff,
        counter("intercepted_total")?,
        counter("last_hop_in_coverage")?,
    );
    println!("Topology diff — af = {af_prefix}, atk = {atk_prefix}");
    print!("{diff}");
    println!("{report}");
    Ok(())
}

/// Replays the tier-1 scenario pairs (interception and blockage,
/// baseline and attacked) with an online invariant checker attached;
/// fails the invocation citing the first offending event.
fn check_invariants_pass(opts: &Options) -> Result<(), String> {
    let cfg = ScenarioConfig::paper_dsrc_default()
        .with_duration(SimDuration::from_secs(opts.scale.duration_s));
    let params =
        InvariantParams { to_min: cfg.gn.to_min, to_max: cfg.gn.to_max, loct_ttl: cfg.gn.loct_ttl };
    println!("Invariant check — seed {}, {} s sim", opts.seed, opts.scale.duration_s);
    let mut failed = false;
    for family in ["interarea", "intraarea"] {
        for attacked in [false, true] {
            let checker = shared(InvariantChecker::new(params));
            match family {
                "interarea" => {
                    let cfg = cfg.with_attack_range(486.0);
                    let traced = Observers::traced(checker.clone());
                    interarea::drive(&cfg, attacked, opts.seed, traced, |_, _| {});
                }
                _ => {
                    let cfg = cfg.with_attack_range(500.0);
                    let traced = Observers::traced(checker.clone());
                    intraarea::drive(&cfg, attacked, opts.seed, traced, |_, _| {});
                }
            }
            let c = checker.borrow();
            let variant = if attacked { "attacked" } else { "baseline" };
            println!("  {family:<9} {variant:<8} {}", c.summary());
            failed |= !c.ok();
        }
    }
    if failed {
        return Err("invariant violations found (see above)".into());
    }
    Ok(())
}

fn ab_rows(experiment: &str, results: &[AbResult], paper: &[Option<f64>]) -> Vec<ExperimentRow> {
    results
        .iter()
        .zip(paper.iter().chain(std::iter::repeat(&None)))
        .map(|(r, p)| ExperimentRow::new(experiment, r.label.clone(), *p, r.gamma()))
        .collect()
}

fn print_ab(
    opts: &Options,
    experiment: &str,
    title: &str,
    results: &[AbResult],
    paper: &[Option<f64>],
) {
    let rows = ab_rows(experiment, results, paper);
    if opts.csv {
        print!("{}", to_csv(&rows));
    } else {
        println!("{}", render_table(title, &rows));
        for r in results {
            println!("  {r}");
        }
        println!();
    }
}

#[allow(clippy::too_many_lines)]
fn run_experiment(opts: &Options, name: &str) {
    let scale = opts.scale;
    let seed = opts.seed;
    match name {
        "table1" => {
            let p = IdmParams::paper_default();
            println!("Table I — IDM parameters\n{p}\n");
        }
        "table2" => {
            println!("Table II — communication ranges");
            println!("{}", RangeProfile::DSRC);
            println!("{}\n", RangeProfile::CV2X);
        }
        "fig7a" => print_ab(
            opts,
            "fig7a",
            "Figure 7a — inter-area interception vs attack range (DSRC), γ",
            &interarea::fig7a(scale, seed),
            &[Some(0.999), Some(0.999), Some(0.468)],
        ),
        "fig7b" => print_ab(
            opts,
            "fig7b",
            "Figure 7b — inter-area interception vs attack range (C-V2X), γ",
            &interarea::fig7b(scale, seed),
            &[Some(1.0), Some(1.0), Some(0.352)],
        ),
        "fig7c" => print_ab(
            opts,
            "fig7c",
            "Figure 7c — inter-area interception vs LocT TTL (DSRC), γ",
            &interarea::fig7c(scale, seed),
            &[Some(0.468), Some(0.462), Some(0.374), Some(0.979)],
        ),
        "fig7d" => print_ab(
            opts,
            "fig7d",
            "Figure 7d — inter-area interception vs inter-vehicle space (DSRC), γ",
            &interarea::fig7d(scale, seed),
            &[Some(0.468), Some(0.478), Some(0.447)],
        ),
        "fig7e" => print_ab(
            opts,
            "fig7e",
            "Figure 7e — inter-area interception vs road directions (DSRC), γ",
            &interarea::fig7e(scale, seed),
            &[Some(0.468), Some(0.583)],
        ),
        "fig8" => {
            let series = interarea::fig8(scale, seed);
            println!("Figure 8 — accumulated interception rate over time (DSRC)");
            print!("{}", series_to_csv(5, &series));
            println!();
        }
        "fig9a" => print_ab(
            opts,
            "fig9a",
            "Figure 9a — intra-area blockage vs attack range (DSRC), λ",
            &intraarea::fig9a(scale, seed),
            &[None, Some(0.385), None, None],
        ),
        "fig9b" => print_ab(
            opts,
            "fig9b",
            "Figure 9b — intra-area blockage vs attack range (C-V2X), λ",
            &intraarea::fig9b(scale, seed),
            &[None, Some(0.358), None, None],
        ),
        "fig9c" => print_ab(
            opts,
            "fig9c",
            "Figure 9c — intra-area blockage vs LocT TTL (DSRC), λ",
            &intraarea::fig9c(scale, seed),
            &[Some(0.385), Some(0.382), Some(0.379)],
        ),
        "fig9d" => print_ab(
            opts,
            "fig9d",
            "Figure 9d — intra-area blockage vs inter-vehicle space (DSRC), λ",
            &intraarea::fig9d(scale, seed),
            &[Some(0.38), Some(0.38), Some(0.38)],
        ),
        "fig9e" => print_ab(
            opts,
            "fig9e",
            "Figure 9e — intra-area blockage vs road directions (DSRC), λ",
            &intraarea::fig9e(scale, seed),
            &[Some(0.385), Some(0.38)],
        ),
        "fig9src" => {
            let (inside, outside) = intraarea::fig9_source_split(scale, seed);
            print_ab(
                opts,
                "fig9src",
                "§IV-A — blockage by source location (500 m attacker, DSRC), λ",
                &[inside, outside],
                &[Some(0.628), Some(0.372)],
            );
        }
        "fig10" => {
            let series = intraarea::fig10(scale, seed);
            println!("Figure 10 — accumulated blockage rate over time (DSRC)");
            print!("{}", series_to_csv(5, &series));
            println!();
        }
        "fig12a" | "fig12b" => {
            let duration = scale.duration_s.max(100);
            let (af, atk) = if name == "fig12a" {
                impact::fig12a(duration, seed)
            } else {
                impact::fig12b(duration, seed)
            };
            println!(
                "Figure {} — vehicles on road over time",
                if name == "fig12a" { "12a (GF case)" } else { "12b (CBF case)" }
            );
            println!(
                "attacker-free: informed at {:?} s, final count {}",
                af.informed_at_s,
                af.final_count()
            );
            println!(
                "attacked:      informed at {:?} s, final count {}",
                atk.informed_at_s,
                atk.final_count()
            );
            if opts.csv {
                println!("t_s,af,atk");
                for (i, &(t, n)) in af.samples.iter().enumerate() {
                    let atk_n = atk.samples.get(i).map_or(0, |&(_, n)| n);
                    println!("{t},{n},{atk_n}");
                }
            }
            println!();
        }
        "fig13" => {
            let (af, atk) = safety::fig13();
            println!("Figure 13 — blind-curve case study");
            println!(
                "attacker-free: V2 warned = {}, collision = {} (min same-lane gap {:.1} m)",
                af.v2_warned, af.collision, af.min_gap
            );
            println!(
                "attacked:      V2 warned = {}, collision = {} at t = {:?} s",
                atk.v2_warned, atk.collision, atk.collision_time
            );
            if opts.csv {
                println!("t_s,v1_af,v2_af,v1_atk,v2_atk");
                for i in 0..af.v1_profile.len().max(atk.v1_profile.len()) {
                    let g = |p: &Vec<(f64, f64)>| {
                        p.get(i).map(|&(_, v)| format!("{v:.2}")).unwrap_or_default()
                    };
                    let t = af.v1_profile.get(i).or(atk.v1_profile.get(i)).map_or(0.0, |&(t, _)| t);
                    println!(
                        "{t:.1},{},{},{},{}",
                        g(&af.v1_profile),
                        g(&af.v2_profile),
                        g(&atk.v1_profile),
                        g(&atk.v2_profile)
                    );
                }
            }
            println!();
        }
        "fig14a" => {
            println!("Figure 14a — GF plausibility-check mitigation (DSRC)");
            println!("(paper: +53.7 / +61.6 / +53.4 pts under wN/mN/mL; af 54.4% → 94.3%)");
            for r in mitigation::fig14a(scale, seed) {
                println!("  {r}");
            }
            println!();
        }
        "fig14b" => {
            println!("Figure 14b — CBF RHL-drop-check mitigation (DSRC)");
            println!("(paper: reception realigned with the attacker-free level)");
            for r in mitigation::fig14b(scale, seed) {
                println!("  {r}");
            }
            println!();
        }
        "analysis" => {
            println!("Closed-form geometry model vs the paper (no simulation)");
            let base = geonet_scenarios::ScenarioConfig::paper_dsrc_default();
            println!("inter-area γ:");
            for (label, range, paper) in [
                ("wN", 327.0, Some(0.468)),
                ("mN", 486.0, Some(0.999)),
                ("mL", 1_283.0, Some(0.999)),
            ] {
                let g = analysis::predicted_gamma(&base.with_attack_range(range));
                let p = paper.map_or("  —  ".to_string(), |v: f64| format!("{:5.1}%", v * 100.0));
                println!("  {label:<4} predicted={:5.1}%  paper={p}", g * 100.0);
            }
            println!("intra-area λ:");
            for (label, range, paper) in [
                ("wN", 327.0, None),
                ("mN", 486.0, Some(0.385)),
                ("500m", 500.0, Some(0.385)),
                ("mL", 1_283.0, None),
            ] {
                let l = analysis::predicted_lambda(&base.with_attack_range(range));
                let p = paper.map_or("  —  ".to_string(), |v: f64| format!("{:5.1}%", v * 100.0));
                println!("  {label:<4} predicted={:5.1}%  paper={p}", l * 100.0);
            }
            println!();
        }
        "ext-ack" => {
            println!("Extension — the rejected mitigation: MAC ACK + retry for GF unicasts");
            println!("(attacked reception vs the mN inter-area attacker, per channel loss)");
            for r in extensions::ack_defense(scale, seed) {
                println!("  {r}");
            }
            println!("channel load (frames on air per setting, without → with ACK):");
            for (label, plain, acked) in extensions::ack_overhead(scale, seed) {
                let pct = if plain > 0 { (acked as f64 / plain as f64 - 1.0) * 100.0 } else { 0.0 };
                println!("  {label:<10} {plain} → {acked} ({pct:+.1}%)");
            }
            println!();
        }
        "ext-loss" => {
            let (inter, intra) = extensions::lossy_channel(scale, seed);
            println!("Extension — both attacks on a lossy channel");
            println!("inter-area (γ):");
            for r in &inter {
                println!("  {r}");
            }
            println!("intra-area (λ):");
            for r in &intra {
                println!("  {r}");
            }
            println!();
        }
        "ext-mobile" => {
            println!("Extension — mobile inter-area attacker (γ vs speed)");
            for r in extensions::moving_attacker(scale, seed) {
                println!("  {r}");
            }
            println!();
        }
        "ablations" => {
            for (title, rows) in extensions::ablations(scale, seed) {
                if opts.csv {
                    print!("{}", to_csv(&rows));
                } else {
                    println!("{}", render_table(title, &rows));
                }
            }
        }
        other => unreachable!("parse_args_from admits only EXPERIMENTS names, got {other}"),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args_from(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    parallel::set_jobs(opts.jobs);
    progress::enable();
    eprintln!(
        "# scale: {} runs × {} s, seed {}, {} job(s)",
        opts.scale.runs, opts.scale.duration_s, opts.seed, opts.jobs
    );
    for name in opts.experiments.clone() {
        let t0 = std::time::Instant::now();
        run_experiment(&opts, &name);
        progress::experiment_completed(&name, t0.elapsed());
    }
    if opts.trace.is_some() || opts.forensics {
        if let Err(e) = forensic_pass(&opts) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.metrics.is_some() || opts.profile {
        if let Err(e) = telemetry_pass(&opts) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(prefix) = &opts.audit {
        if let Err(e) = audit_pass(&opts, prefix) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some((a, b)) = &opts.audit_diff {
        match audit_diff_pass(a, b) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.check_invariants {
        if let Err(e) = check_invariants_pass(&opts) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(prefix) = &opts.topology {
        if let Err(e) = topology_pass(&opts, prefix) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some((af, atk)) = &opts.topology_diff {
        if let Err(e) = topology_diff_pass(af, atk) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args_from(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_flags_and_experiments() {
        let o = parse(&["--runs", "7", "--duration", "30", "--seed", "9", "--csv", "fig7a"])
            .expect("valid args");
        assert_eq!(o.scale.runs, 7);
        assert_eq!(o.scale.duration_s, 30);
        assert_eq!(o.seed, 9);
        assert!(o.csv);
        assert_eq!(o.experiments, vec!["fig7a".to_string()]);
        assert!(o.trace.is_none() && !o.forensics && o.metrics.is_none() && !o.profile);
    }

    #[test]
    fn rejects_duplicate_flag_naming_it() {
        let err = parse(&["--runs", "2", "--runs", "3", "fig7a"]).unwrap_err();
        assert!(err.contains("duplicate flag --runs"), "got: {err}");
        let err = parse(&["--csv", "--csv", "fig7a"]).unwrap_err();
        assert!(err.contains("duplicate flag --csv"), "got: {err}");
    }

    #[test]
    fn rejects_unknown_flag_naming_it() {
        let err = parse(&["--frobnicate", "fig7a"]).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "got: {err}");
    }

    #[test]
    fn rejects_missing_value() {
        let err = parse(&["fig7a", "--seed"]).unwrap_err();
        assert!(err.contains("--seed"), "got: {err}");
    }

    #[test]
    fn rejects_empty_experiment_list() {
        let err = parse(&[]).unwrap_err();
        assert!(err.contains("no experiments"), "got: {err}");
    }

    #[test]
    fn metrics_and_profile_allow_empty_experiments() {
        let o = parse(&["--metrics", "/tmp/out"]).expect("metrics alone is valid");
        assert_eq!(o.metrics.as_deref(), Some("/tmp/out"));
        assert!(o.experiments.is_empty());
        let o = parse(&["--profile"]).expect("profile alone is valid");
        assert!(o.profile);
    }

    #[test]
    fn audit_flags_allow_empty_experiments() {
        let o = parse(&["--audit", "/tmp/run"]).expect("audit alone is valid");
        assert_eq!(o.audit.as_deref(), Some("/tmp/run"));
        assert!(o.experiments.is_empty());
        let o = parse(&["--check-invariants"]).expect("check-invariants alone is valid");
        assert!(o.check_invariants);
    }

    #[test]
    fn audit_diff_takes_two_paths() {
        let o = parse(&["--audit-diff", "a.audit.json", "b.audit.json"]).expect("valid");
        assert_eq!(o.audit_diff, Some(("a.audit.json".to_string(), "b.audit.json".to_string())));
        let err = parse(&["--audit-diff", "a.audit.json"]).unwrap_err();
        assert!(err.contains("--audit-diff"), "got: {err}");
    }

    #[test]
    fn sibling_trace_follows_naming_convention() {
        assert_eq!(
            sibling_trace("/tmp/run.baseline.audit.json").as_deref(),
            Some("/tmp/run.baseline.trace.jsonl")
        );
        assert_eq!(sibling_trace("/tmp/other.json"), None);
    }

    #[test]
    fn topology_flags_allow_empty_experiments() {
        let o = parse(&["--topology", "/tmp/topo"]).expect("topology alone is valid");
        assert_eq!(o.topology.as_deref(), Some("/tmp/topo"));
        assert_eq!(o.topology_scenario, TopologyScenario::Interception);
        assert!(o.experiments.is_empty());
        let o = parse(&["--topology-diff", "run.af", "run.atk"]).expect("valid");
        assert_eq!(o.topology_diff, Some(("run.af".to_string(), "run.atk".to_string())));
    }

    #[test]
    fn topology_scenario_selects_blockage() {
        let o =
            parse(&["--topology-scenario", "blockage", "--topology", "/tmp/topo"]).expect("valid");
        assert_eq!(o.topology_scenario, TopologyScenario::Blockage);
        let err = parse(&["--topology-scenario", "teleport", "--topology", "/tmp/t"]).unwrap_err();
        assert!(err.contains("unknown scenario teleport"), "got: {err}");
    }

    #[test]
    fn help_documents_every_accepted_flag() {
        let help = help_text();
        for spec in FLAG_SPECS {
            // Documented: the flag and its operand signature appear.
            let line = if spec.operands.is_empty() {
                spec.name.to_string()
            } else {
                format!("{} {}", spec.name, spec.operands)
            };
            assert!(help.contains(&line), "help is missing {line:?}:\n{help}");
            // Accepted: the parser takes the flag with its example
            // operands (plus an experiment, for flags that need one).
            let mut argv = vec![spec.name];
            argv.extend_from_slice(spec.example);
            argv.push("table1");
            assert!(parse(&argv).is_ok(), "parser rejected documented flag {argv:?}");
        }
    }

    #[test]
    fn rejects_unknown_experiment_before_running_any() {
        let err = parse(&["fig7a", "fig7x"]).unwrap_err();
        assert!(err.contains("unknown experiment fig7x"), "got: {err}");
    }

    #[test]
    fn help_lists_and_parser_accepts_every_experiment() {
        let help = help_text();
        for (name, _) in EXPERIMENTS {
            assert!(help.contains(name), "help is missing {name}:\n{help}");
            let o = parse(&[name]).expect("listed experiment parses");
            assert_eq!(o.experiments, vec![(*name).to_string()]);
        }
    }

    #[test]
    fn all_expands_to_paper_experiments() {
        let o = parse(&["all"]).expect("valid");
        assert_eq!(o.experiments.len(), 20);
        assert!(o.experiments.iter().any(|e| e == "table1"));
        assert!(o.experiments.iter().any(|e| e == "fig14b"));
    }
}
