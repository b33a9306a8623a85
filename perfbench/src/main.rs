//! End-to-end and per-layer benchmark of the geonet-break simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload interarea_ab --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! One run repeats the workload's unit of work (a batch of seeded A/B
//! world pairs, or one reduced Fig 7a campaign) for `--seconds`, checks
//! every output, and prints a human-readable report on stderr, an
//! environment line and, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no observer attached;
//! with `--trace 1` they are the per-layer ones, from untraced, traced
//! and observed repetitions of the same worlds plus the layer probes.
//! `--manifest` prints the `BENCHMARK.json` these tables define.

mod alloc;
mod layers;
mod probes;
mod runner;
mod sched;
mod spec;
mod stats;

use geonet_scenarios::config::Scale;
use geonet_scenarios::{interarea, parallel, AbResult};
use geonet_sim::telemetry::json;
use layers::Spans;
use runner::{Kind, Mode, Pair};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seeded A/B pairs per batch in the A/B workloads.
const PAIRS: u32 = 4;
/// Length of an A/B world: the paper's 200 s.
const AB_DURATION_S: u64 = 200;
/// The reduced Fig 7a campaign: 3 ranges × `runs` pairs × `duration_s`.
const CAMPAIGN: Scale = Scale { runs: 2, duration_s: 100 };
/// Largest share of the traced total the layers' sum may miss.
const ADDITIVITY_LIMIT: f64 = 0.10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(f64::from(spec::RUN_SECONDS)),
        trace: trace.unwrap_or(false),
    }))
}

/// How a workload maps onto the runners.
#[derive(Clone, Copy)]
struct Plan {
    kind: Kind,
    observed: bool,
    campaign: bool,
}

impl Plan {
    fn of(name: &str) -> Plan {
        let (kind, observed, campaign) = match name {
            "interarea_ab" => (Kind::InterArea, false, false),
            "blockage_ab" => (Kind::Blockage, false, false),
            "interarea_observed" => (Kind::InterArea, true, false),
            "fig7a_campaign" => (Kind::InterArea, false, true),
            other => unreachable!("workload {other} has no plan"),
        };
        Plan { kind, observed, campaign }
    }

    /// Operations per unit: worlds, or the one campaign.
    fn ops(self) -> u64 {
        if self.campaign {
            1
        } else {
            2 * u64::from(PAIRS)
        }
    }
}

/// One repetition of a workload's unit of work.
struct Unit {
    mode: Mode,
    wall_s: f64,
    pairs: Vec<Pair>,
    /// The merged A/B result of each campaign setting, or of each pair.
    results: Vec<AbResult>,
    /// Highest live size above the unit's start, bytes.
    peak_live: u64,
}

impl Unit {
    fn worlds(&self) -> impl Iterator<Item = &runner::WorldRun> {
        self.pairs.iter().flatten()
    }

    fn sim_s(&self) -> f64 {
        self.worlds().map(|w| w.sim_s).sum()
    }
}

fn run_unit(plan: Plan, seed: u64, mode: Mode) -> Unit {
    let live0 = alloc::reset_peak();
    let t = Instant::now();
    let (campaign, pairs) = if plan.campaign {
        let (results, pairs) = runner::fig7a(CAMPAIGN, seed, mode);
        (Some(results), pairs)
    } else {
        let cfg = runner::config(plan.kind, AB_DURATION_S);
        (None, runner::ab_batch(plan.kind, &cfg, seed, PAIRS, mode))
    };
    let wall_s = t.elapsed().as_secs_f64();
    let results = campaign.unwrap_or_else(|| {
        pairs.iter().map(|p| runner::merge("pair", std::slice::from_ref(p))).collect()
    });
    // With one job each world restarts peak tracking (see `run_world`),
    // so the unit's peak is its largest world's.
    let peak_live = if parallel::jobs() > 1 {
        alloc::peak().saturating_sub(live0)
    } else {
        pairs.iter().flatten().map(|w| w.peak_live).max().unwrap_or(0)
    };
    Unit { mode, wall_s, pairs, results, peak_live }
}

/// Failed operations and why, collected across all checks. An operation
/// is a world of a unit (A/B workloads) or the unit itself (campaign),
/// and counts once however many checks it fails.
#[derive(Default)]
struct Failures {
    ops: BTreeSet<(usize, usize)>,
    panicked: u64,
    notes: Vec<String>,
}

impl Failures {
    /// A check failed that no single operation is to blame for.
    fn note(&mut self, note: String) {
        eprintln!("FAILED: {note}");
        self.notes.push(note);
    }

    /// World `world` of unit `unit` failed a check.
    fn fail(&mut self, plan: Plan, unit: usize, world: usize, note: String) {
        self.ops.insert((unit, if plan.campaign { 0 } else { world }));
        self.note(note);
    }

    fn count(&self) -> u64 {
        self.ops.len() as u64 + self.panicked
    }
}

/// The output checks: library equivalence, cross-repetition and
/// cross-observer determinism, and the attacks' effect.
fn check(plan: Plan, units: &[Unit], reference: &Reference, f: &mut Failures) {
    // Observers never change behaviour (checked below), so any unit's
    // worlds must match the library's.
    match (reference, units.first()) {
        (Reference::Bins(bins), Some(u)) => {
            for (side, (want, got)) in bins.iter().zip(&u.pairs[0]).enumerate() {
                if *want != got.bins {
                    let note =
                        format!("pair 0 side {side}: bins differ from the library's run_one");
                    f.fail(plan, 0, side, note);
                }
            }
        }
        (Reference::Campaign(want), Some(u)) => {
            if *want != u.results {
                f.fail(plan, 0, 0, "campaign results differ from interarea::fig7a".into());
            }
        }
        (Reference::Panicked, _) => f.note("the library's runner panicked".into()),
        (_, None) => {}
    }
    let indexed = || units.iter().enumerate();
    for mode in [Mode::Bare, Mode::Traced, Mode::Observed] {
        let mut same = indexed().filter(|(_, u)| u.mode == mode);
        let Some((_, first)) = same.next() else { continue };
        for (r, u) in same {
            for (i, (a, b)) in first.worlds().zip(u.worlds()).enumerate() {
                if a.fingerprint() != b.fingerprint() {
                    let (got, want) = (b.fingerprint(), a.fingerprint());
                    f.fail(plan, r, i, format!("{mode:?} unit {r} world {i}: {got:?} != {want:?}"));
                }
            }
        }
    }
    if let Some(bare) = units.iter().find(|u| u.mode == Mode::Bare) {
        for (r, u) in indexed().filter(|(_, u)| u.mode != Mode::Bare) {
            for (i, (a, b)) in bare.worlds().zip(u.worlds()).enumerate() {
                if a.behaviour() != b.behaviour() {
                    let note =
                        format!("{:?} unit {r} world {i} behaves unlike the bare world", u.mode);
                    f.fail(plan, r, i, note);
                }
            }
        }
    }
    for (r, u) in indexed() {
        for (i, result) in u.results.iter().enumerate() {
            let baseline = result.baseline_rate().unwrap_or(0.0);
            if baseline <= plan.kind.min_baseline_reception() {
                let note = format!("unit {r} pair {i}: attacker-free reception {baseline}");
                f.fail(plan, r, 2 * i, note);
            }
            if result.gamma().unwrap_or(0.0) <= 0.0 {
                f.fail(plan, r, 2 * i + 1, format!("unit {r} pair {i}: the attack had no effect"));
            }
        }
        // Per-bin drops are clamped at zero, so noise alone yields a small
        // positive γ; an active attack also shows as replayed frames.
        for (i, [_, attacked]) in u.pairs.iter().enumerate() {
            if attacked.replays == 0 {
                f.fail(
                    plan,
                    r,
                    2 * i + 1,
                    format!("unit {r} pair {i}: the attacker replayed nothing"),
                );
            }
        }
    }
}

/// The library's answer for the first pair (or the campaign).
enum Reference {
    Bins([geonet_sim::TimeBins; 2]),
    Campaign(Vec<AbResult>),
    Panicked,
}

fn reference(plan: Plan, seed: u64) -> Reference {
    catch_unwind(|| {
        if plan.campaign {
            Reference::Campaign(interarea::fig7a(CAMPAIGN, seed))
        } else {
            let cfg = runner::config(plan.kind, AB_DURATION_S);
            Reference::Bins(runner::reference_bins(plan.kind, &cfg, seed))
        }
    })
    .unwrap_or(Reference::Panicked)
}

/// Metric values by name, in report order.
type Metrics = Vec<(&'static str, f64)>;

/// Worlds built per run for `setup_s`.
const SETUPS: u64 = 200;

/// Wall time of each of `SETUPS` world set-ups, seconds.
fn setup_samples(plan: Plan, seed: u64) -> Vec<f64> {
    let duration_s = if plan.campaign { CAMPAIGN.duration_s } else { AB_DURATION_S };
    let cfg = runner::config(plan.kind, duration_s);
    (0..SETUPS)
        .map(|i| {
            let t = Instant::now();
            let built = runner::build(plan.kind, &cfg, i % 2 == 1, seed.wrapping_add(i));
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        })
        .collect()
}

fn end_to_end(plan: Plan, units: &[Unit], mut setups: Vec<f64>) -> Metrics {
    // One sample per A/B pair, or per campaign: (wall, simulated seconds).
    let samples: Vec<(f64, f64)> = if plan.campaign {
        units.iter().map(|u| (u.wall_s, u.sim_s())).collect()
    } else {
        units
            .iter()
            .flat_map(|u| u.pairs.iter().map(|[a, b]| (a.wall_s + b.wall_s, a.sim_s + b.sim_s)))
            .collect()
    };
    let mut wall: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let mut ratio: Vec<f64> = samples.iter().map(|s| s.1 / s.0).collect();
    // Step quantiles per repetition, then their median across
    // repetitions, so one slow stretch of the host moves one sample.
    let step_q = |q: f64| -> Vec<f64> {
        units
            .iter()
            .map(|u| {
                let mut steps: Vec<f64> =
                    u.worlds().flat_map(|w| w.steps_ns.iter().map(|&n| n as f64 / 1e6)).collect();
                stats::quantile(&mut steps, q)
            })
            .collect()
    };
    let (mut p50, mut p99) = (step_q(0.5), step_q(0.99));
    let first = &units[0];
    // The worlds' own allocations, which repeat exactly; the campaign
    // pool's few (thread start-up, result slots) vary by one or two.
    let allocs: u64 = first.worlds().map(|w| w.allocs.allocs).sum();
    let bytes: u64 = first.worlds().map(|w| w.allocs.bytes).sum();
    let mut peaks: Vec<f64> = units.iter().map(|u| u.peak_live as f64 / 1e6).collect();
    let wall_summary = stats::summary(&mut wall);
    let setup_summary = stats::summary(&mut setups);
    let steps_per_unit = first.worlds().map(|w| w.steps_ns.len()).sum::<usize>();
    for (name, s, unit) in [("wall_s", wall_summary, "s"), ("setup_s", setup_summary, "s")] {
        eprintln!(
            "  {name:<22} median {:.6} {unit}, p{:.0} {:.6} {unit}, n = {}",
            s.p50,
            s.tail_q * 100.0,
            s.tail,
            s.n
        );
    }
    eprintln!(
        "  step quantiles over {steps_per_unit} simulated seconds per repetition, n = {} repetitions",
        units.len()
    );
    vec![
        ("wall_s", wall_summary.p50),
        ("sim_wall_ratio", stats::median(&mut ratio)),
        ("step_p50_ms", stats::median(&mut p50)),
        ("step_p99_ms", stats::median(&mut p99)),
        ("setup_s", setup_summary.p50),
        ("allocs_per_sim_s", allocs as f64 / first.sim_s()),
        ("alloc_bytes_per_sim_s", bytes as f64 / first.sim_s()),
        ("peak_live_mb", stats::median(&mut peaks)),
    ]
}

fn per_layer(plan: Plan, units: &[Unit], seed: u64, f: &mut Failures) -> Metrics {
    let of = |mode: Mode| units.iter().filter(move |u| u.mode == mode);
    let wall = |mode: Mode| of(mode).map(|u| u.wall_s).sum::<f64>();
    let (bare_s, traced_s, observed_s) =
        (wall(Mode::Bare), wall(Mode::Traced), wall(Mode::Observed));
    let bare = of(Mode::Bare).next().expect("a bare unit");
    let traced_first = of(Mode::Traced).next().expect("a traced unit");
    let observed_first = of(Mode::Observed).next().expect("an observed unit");

    let mut spans = Spans::default();
    let mut hist = runner::Histograms::default();
    let mut traced_worlds = 0u32;
    let mut queue_peak = 0;
    for w in of(Mode::Traced).flat_map(Unit::worlds) {
        let t = w.traced.as_ref().expect("traced worlds carry layer data");
        spans.add(&t.spans);
        hist.merge(&t.hist);
        queue_peak = queue_peak.max(t.queue_peak);
        traced_worlds += 1;
    }
    let st = match spans.self_times() {
        Ok(st) => st,
        Err(e) => {
            f.note(format!("span nesting: {e}"));
            layers::SelfTimes { sim: 0, traffic: 0, scan: 0, transmit: 0, router: 0, dispatch: 0 }
        }
    };
    let additivity = st.additivity_error(spans.total_ns);
    if additivity > ADDITIVITY_LIMIT {
        f.note(format!(
            "layer self times sum to {} ns, {:.1} % off the traced total {} ns",
            st.sum(),
            additivity * 100.0,
            spans.total_ns
        ));
    }
    let per_world_ms = |ns: u64| ns as f64 / 1e6 / f64::from(traced_worlds.max(1));
    let first_traced_hist =
        traced_first.worlds().fold(runner::Histograms::default(), |mut h, w| {
            h.merge(&w.traced.as_ref().expect("traced").hist);
            h
        });
    let calls = first_traced_hist.handle_frame.count();
    let useful: u64 =
        traced_first.worlds().map(|w| w.stats.beacons_accepted + w.stats.delivered).sum();
    let sum_bare = |g: fn(&runner::WorldRun) -> u64| bare.worlds().map(g).sum::<u64>() as f64;
    let bare_cpu_ns: u64 = of(Mode::Bare).flat_map(Unit::worlds).map(|w| w.on_cpu_ns).sum();
    let bare_wait_ns: u64 = of(Mode::Bare).flat_map(Unit::worlds).map(|w| w.runq_wait_ns).sum();
    let bare_units = of(Mode::Bare).count() as f64;
    let p = probes::run(plan.kind, seed);
    vec![
        ("sim.events", sum_bare(|w| w.events)),
        ("sim.kernel_self_ms", per_world_ms(st.sim)),
        ("sim.queue_peak", queue_peak as f64),
        ("traffic.step_self_ms", per_world_ms(st.traffic)),
        ("traffic.step_p99_us", hist.traffic.p99().unwrap_or(0) as f64 / 1e3),
        ("radio.scan_self_ms", per_world_ms(st.scan)),
        (
            "radio.receivers_per_frame",
            calls as f64 / first_traced_hist.broadcast.count().max(1) as f64,
        ),
        ("radio.receivers_into_ns", p.receivers_into.ns),
        ("world.transmit_self_ms", per_world_ms(st.transmit)),
        ("world.dispatch_self_ms", per_world_ms(st.dispatch)),
        ("world.frames_on_air", sum_bare(|w| w.frames)),
        ("world.bytes_on_air", sum_bare(|w| w.bytes)),
        ("router.handle_frame_calls", calls as f64),
        ("router.handle_frame_self_ms", per_world_ms(st.router)),
        ("router.handle_frame_p99_ns", hist.handle_frame.p99().unwrap_or(0) as f64),
        ("router.useful_frac", useful as f64 / calls.max(1) as f64),
        ("router.cbf_rebroadcasts", sum_bare(|w| w.stats.cbf_rebroadcast)),
        ("router.gf_unicasts", sum_bare(|w| w.stats.gf_unicast)),
        ("router.beacon_ns", p.beacon.ns),
        ("router.beacon_allocs", p.beacon.allocs),
        ("router.dup_gbc_ns", p.dup_gbc.ns),
        ("router.dup_gbc_allocs", p.dup_gbc.allocs),
        ("security.verify_ns", p.verify.ns),
        ("security.verify_allocs", p.verify.allocs),
        ("wire.encode_ns", p.encode.ns),
        ("wire.encode_allocs", p.encode.allocs),
        ("attack.replays", sum_bare(|w| w.replays)),
        ("observe.overhead_frac", observed_s / bare_s - 1.0),
        ("observe.audit_checkpoint_us", p.audit_checkpoint.ns / 1e3),
        ("observe.topo_snapshot_us", p.topo_snapshot.ns / 1e3),
        (
            "observe.trace_events",
            observed_first
                .worlds()
                .map(|w| w.traced.as_ref().map_or(0, |t| t.trace_events))
                .sum::<u64>() as f64,
        ),
        ("observe.telemetry_span_ns", (traced_s - bare_s) * 1e9 / hist.spans().max(1) as f64),
        ("parallel.cpu_util", bare_cpu_ns as f64 / 1e9 / (bare_s * parallel::jobs() as f64)),
        ("parallel.runq_wait_s", bare_wait_ns as f64 / 1e9 / bare_units),
        ("trace.overhead_frac", traced_s / bare_s - 1.0),
        ("trace.additivity_err", additivity),
    ]
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    units: &[spec::Metric],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = units.iter().find(|m| m.name == *name).map_or("", |m| m.unit);
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                spec::quote(name),
                spec::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let plan = Plan::of(args.workload.name);
    let nproc = parallel::available_jobs();
    parallel::set_jobs(if plan.campaign { nproc.min(2) } else { 1 });
    eprintln!(
        "perfbench: workload {} (seed {}, {} s, trace {}): {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.why
    );
    let reference = reference(plan, args.seed);
    let setups = if args.trace { Vec::new() } else { setup_samples(plan, args.seed) };
    let modes: &[Mode] = match (args.trace, plan.observed) {
        (true, _) => &[Mode::Bare, Mode::Traced, Mode::Observed],
        (false, true) => &[Mode::Observed],
        (false, false) => &[Mode::Bare],
    };
    // Untraced runs repeat at least twice so determinism is checked.
    let min_rounds = if args.trace { 1 } else { 2 };
    let steal0 = sched::steal_s();
    let mut failures = Failures::default();
    let mut attempted = 0;
    let mut units = Vec::new();
    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        for &mode in modes {
            attempted += plan.ops();
            match catch_unwind(AssertUnwindSafe(|| run_unit(plan, args.seed, mode))) {
                Ok(u) => units.push(u),
                Err(_) => {
                    failures.panicked += plan.ops();
                    failures.note(format!("{mode:?} unit panicked"));
                }
            }
        }
        rounds += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if rounds >= min_rounds && elapsed + elapsed / f64::from(rounds) > args.seconds {
            break;
        }
    }
    check(plan, &units, &reference, &mut failures);
    if modes.iter().any(|m| !units.iter().any(|u| u.mode == *m)) {
        return Err("no repetition completed".into());
    }
    let (metrics, specs) = if args.trace {
        (per_layer(plan, &units, args.seed, &mut failures), PER_LAYER)
    } else {
        (end_to_end(plan, &units, setups), END_TO_END)
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let unit = specs.iter().find(|m| m.name == *name).map_or("?", |m| m.unit);
        eprintln!("  {name:<30} {value:>16.6} {unit}");
    }
    assert_eq!(metrics.len(), specs.len(), "every metric is reported");

    let worlds = || units.iter().flat_map(Unit::worlds);
    let on_cpu_s = worlds().map(|w| w.on_cpu_ns).sum::<u64>() as f64 / 1e9;
    let runq_s = worlds().map(|w| w.runq_wait_ns).sum::<u64>() as f64 / 1e9;
    let busy_s: f64 = units.iter().map(|u| u.wall_s).sum::<f64>() * parallel::jobs() as f64;
    let steal_s = sched::steal_s() - steal0;
    println!(
        "{{\"env\": {{\"workload\": {}, \"why\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"jobs\": {}, \"repetitions\": {}, \"wall_s\": {busy_s}, \"on_cpu_s\": {on_cpu_s}, \
         \"runq_wait_s\": {runq_s}, \"steal_s\": {steal_s}}}}}",
        spec::quote(args.workload.name),
        spec::quote(args.workload.why),
        args.seed,
        args.trace,
        parallel::jobs(),
        units.len(),
    );
    eprintln!(
        "  env: nproc {nproc}, jobs {}, {} repetitions, wall×jobs {busy_s:.3} s, on-CPU {on_cpu_s:.3} s, \
         run-queue wait {runq_s:.3} s, steal {steal_s:.2} s",
        parallel::jobs(),
        units.len()
    );
    let correct = failures.notes.is_empty();
    let line = result_line(correct, attempted, failures.count(), &metrics, specs);
    let parsed = json::parse(&line).map_err(|e| format!("result line does not parse: {e}"))?;
    let reported = spec::field(&parsed, "metrics").ok_or("result line has no metrics")?;
    for m in specs {
        if !spec::valid_name(m.name) || spec::field(reported, m.name).is_none() {
            return Err(format!("metric {} is missing or misnamed", m.name));
        }
    }
    Ok(line)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 | --manifest"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Option<Args>, String> {
        parse_args(v.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a =
            args(&["--workload", "blockage_ab", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .expect("valid")
                .expect("a run");
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("blockage_ab", 7, 3.0, true));
        assert!(args(&["--manifest"]).expect("valid").is_none());
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "interarea_ab"],
            &["--workload", "interarea_ab", "--seed", "1", "--trace", "2"],
            &["--workload", "interarea_ab", "--seed", "1", "--seconds", "0"],
            &["--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn every_workload_has_a_plan() {
        for w in WORKLOADS {
            let _ = Plan::of(w.name);
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let metrics: Metrics = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = result_line(true, 4, 0, &metrics, END_TO_END);
        let v = json::parse(&line).expect("JSON");
        assert_eq!(spec::field(&v, "correct"), Some(&json::Value::Bool(true)));
        let attempted = spec::field(&v, "attempted").expect("attempted").as_u64("attempted");
        assert_eq!(attempted, Ok(4));
        let m = spec::field(&v, "metrics").expect("metrics");
        for s in END_TO_END {
            let entry = spec::field(m, s.name).expect("metric present");
            let value = spec::field(entry, "value").expect("value").as_f64("value");
            assert_eq!(value, Ok(1.25));
            assert_eq!(spec::field(entry, "unit"), Some(&json::Value::String(s.unit.into())));
        }
    }
}
