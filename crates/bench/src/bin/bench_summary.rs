//! `bench_summary` — dependency-free runner for the CI gates that compare
//! two *different* code paths inside one binary. Cross-commit timing
//! (end to end and per layer) lives in `perfbench/`; this runner only
//! answers "is the shipped path still better than the one it replaced?".
//!
//! ```text
//! bench_summary [RADIO_OUT.json] [PARALLEL_OUT.json] [--check]
//! ```
//!
//! The first report (default `BENCH_radio.json`) gates the
//! spatial-indexed medium: the delivery path `World::transmit` actually
//! ships (grid-backed `receivers_into` on a reused buffer) against the
//! pre-index delivery path (the allocating linear scan,
//! `receivers_within_linear`), interleaved, on the paper's two-lane
//! road at 30/100/300 m inter-vehicle spacing. The new path must win
//! at 30 m (the dense case the index exists for) and must not regress
//! the 300 m sparse case by 2% or more; the allocating grid wrapper is
//! reported alongside as the alloc-matched index-only comparison.
//!
//! The second report (default `BENCH_parallel.json`) gates the campaign
//! job pool: an interarea `run_ab` campaign timed under `jobs = 1` vs
//! `jobs = 4` plus the pre-pool hand-written loop. The pooled
//! sequential path must stay within 2% of the raw loop, the `jobs = 4`
//! report must be byte-identical to `jobs = 1` (hard gate), and on
//! hosts that actually have ≥ 4 cores the campaign must run ≥ 2× faster
//! — on smaller hosts the speedup number is recorded but the gate is
//! skipped (`speedup_gate_enforced: false`).
//!
//! `--check` exits nonzero if any of the gates above fails. Any other
//! `-`-prefixed argument, or more paths than there are reports, is an
//! error: a mistyped `--check` must not silently turn every gate off.

use geonet_geo::Position;
use geonet_radio::{Medium, NodeId};
use geonet_scenarios::config::Scale;
use geonet_scenarios::{interarea, parallel, ScenarioConfig};
use geonet_sim::{SimDuration, TimeBins};
use std::hint::black_box;
use std::time::Instant;

/// Per-sample iteration count: large enough that one `Instant` read
/// amortises to well under a nanosecond per op.
const BATCH: u32 = 20_000;
/// Number of timed batches per variant; the per-batch *minimum* defeats
/// scheduler noise and one-off cache misses. (Preemption and frequency
/// throttling only ever add time, so on a shared runner the fastest
/// batch is the tightest estimate of the code's true cost — medians
/// flaked the 2% gates by ±3.5% on loaded single-core hosts.)
const SAMPLES: usize = 31;

/// The reports this runner writes, in positional-argument order, with
/// their default paths.
const REPORTS: [&str; 2] = ["BENCH_radio.json", "BENCH_parallel.json"];

/// Parsed command line: whether to gate, and one output path per report.
#[derive(Debug)]
struct Args {
    check: bool,
    radio_out: String,
    parallel_out: String,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut check = false;
    let mut outs = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => outs.push(arg),
        }
    }
    if outs.len() > REPORTS.len() {
        return Err(format!(
            "{} output paths given, at most {} expected ({})",
            outs.len(),
            REPORTS.len(),
            REPORTS.join(", ")
        ));
    }
    let mut outs = outs.into_iter();
    let mut next_out = |default: &str| outs.next().unwrap_or_else(|| default.to_string());
    Ok(Args { check, radio_out: next_out(REPORTS[0]), parallel_out: next_out(REPORTS[1]) })
}

fn fastest(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Collapses paired interleaved samples into two comparable numbers:
/// `a`'s best batch sets the absolute scale, and `b` is placed relative
/// to it by the *median of per-sample ratios* `b[i] / a[i]`. Each ratio
/// comes from two batches only milliseconds apart, so sustained
/// slowdowns (frequency scaling, steal time) hit both sides of a ratio
/// multiplicatively and cancel — unlike `min(a)` vs `min(b)`, which may
/// pick its two minima from differently-throttled time windows and
/// manufacture a delta between identical code paths.
fn pair_summary(pa: Vec<f64>, pb: Vec<f64>) -> (f64, f64) {
    let mut ratios: Vec<f64> = pa.iter().zip(&pb).map(|(a, b)| b / a).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let ratio = ratios[ratios.len() / 2];
    let best_a = fastest(pa);
    (best_a, best_a * ratio)
}

/// Best-case ns/op of `f` over [`SAMPLES`] batches of [`BATCH`] calls.
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..BATCH {
        f(); // warm-up: fill caches, settle branch predictors
    }
    let mut per_op = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    fastest(per_op)
}

/// Best-case ns/op of two closures with their batches interleaved, so CPU
/// frequency drift and cache warm-up hit both sides equally — the only
/// honest way to resolve a sub-2% difference between near-identical
/// code paths.
fn time_pair_ns(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    for _ in 0..BATCH {
        a();
        b();
    }
    let (mut pa, mut pb) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            a();
        }
        pa.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
        let t0 = Instant::now();
        for _ in 0..BATCH {
            b();
        }
        pb.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    pair_summary(pa, pb)
}

/// Whole-call seconds of two campaign closures, interleaved — one
/// sample is one full campaign, so far fewer samples than the
/// nanosecond batches above, summarised through the same
/// [`pair_summary`] ratio logic (a 300 ms campaign pair is still short
/// against the seconds-long load swings of a shared runner).
const CAMPAIGN_SAMPLES: usize = 15;

fn time_campaign_pair_s(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a(); // warm-up both sides once
    b();
    let (mut pa, mut pb) =
        (Vec::with_capacity(CAMPAIGN_SAMPLES), Vec::with_capacity(CAMPAIGN_SAMPLES));
    for _ in 0..CAMPAIGN_SAMPLES {
        let t0 = Instant::now();
        a();
        pa.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        b();
        pb.push(t0.elapsed().as_secs_f64());
    }
    pair_summary(pa, pb)
}

fn main() -> std::process::ExitCode {
    let Args { check, radio_out, parallel_out } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: bench_summary [RADIO_OUT.json] [PARALLEL_OUT.json] [--check]");
            return std::process::ExitCode::FAILURE;
        }
    };

    eprintln!("# timing receiver queries: grid vs linear scan at 30/100/300 m spacing...");
    // The paper's road: 4 km, two lanes, one vehicle per `spacing`
    // metres, everyone at the DSRC NLoS-median 486 m range — in the state
    // a 200 s campaign run actually reaches: ids are dense and permanent,
    // so every vehicle that entered and left the road since t=0 is still
    // in the entry table, inactive. The linear scan visits those corpses
    // on every broadcast; the grid holds active nodes only. The query is
    // the one `World::transmit` issues per broadcast, from a mid-road
    // sender. The gated pair is shipped-path vs shipped-path: before this
    // index the delivery loop called the allocating linear scan every
    // broadcast, after it calls `receivers_into` on a reused buffer — so
    // those two are interleaved and drive both gates. `grid_ns` (the
    // allocating wrapper) is reported alongside as the alloc-matched,
    // index-only comparison; it is not gated because at sparse spacings
    // the ~10 ns wrapper overhead sits inside measurement noise.
    let mut spacing_rows = String::new();
    let mut grid_beats_linear_30m = false;
    let mut grid_regression_300m_pct = 0.0;
    for &spacing in &[30.0f64, 100.0, 300.0] {
        let mut m = Medium::new();
        let per_lane = (4_000.0 / spacing) as u32 + 1;
        for lane in 0..2u32 {
            for i in 0..per_lane {
                let _ = m.register(
                    Position::new(f64::from(i) * spacing, 2.5 + f64::from(lane) * 3.5),
                    486.0,
                );
            }
        }
        // Flow at ~30 m/s means one departure per lane every
        // `spacing / 30` seconds; after 200 s that is the retired-entry
        // backlog below (e.g. 400 at 30 m spacing).
        let retired = (200.0 * 2.0 * 30.0 / spacing) as u32;
        for i in 0..retired {
            let id = m.register(Position::new(f64::from(i % per_lane) * spacing, 2.5), 486.0);
            m.set_active(id, false);
        }
        let sender = NodeId(per_lane / 2);
        let mut buf = Vec::new();
        let (grid_into_ns, linear_ns) = time_pair_ns(
            || {
                m.receivers_into(black_box(sender), 486.0, &mut buf);
                black_box(&buf);
            },
            || {
                black_box(m.receivers_within_linear(black_box(sender), 486.0));
            },
        );
        let grid_ns = time_ns(|| {
            black_box(m.receivers_within(black_box(sender), 486.0));
        });
        if spacing == 30.0 {
            grid_beats_linear_30m = grid_into_ns < linear_ns;
        }
        if spacing == 300.0 {
            grid_regression_300m_pct = (grid_into_ns - linear_ns) / linear_ns * 100.0;
        }
        if !spacing_rows.is_empty() {
            spacing_rows.push_str(",\n");
        }
        spacing_rows.push_str(&format!(
            "    {{ \"spacing_m\": {spacing:.0}, \"nodes\": {}, \"linear_ns\": {linear_ns:.2}, \
             \"grid_ns\": {grid_ns:.2}, \"grid_into_ns\": {grid_into_ns:.2}, \
             \"grid_speedup\": {:.2} }}",
            m.len(),
            linear_ns / grid_into_ns,
        ));
    }
    let radio_json = format!(
        "{{\n  \"bench\": \"radio_receiver_query\",\n  \"samples\": {SAMPLES},\n  \
         \"batch_iters\": {BATCH},\n  \"spacings\": [\n{spacing_rows}\n  ],\n  \
         \"grid_beats_linear_30m\": {grid_beats_linear_30m},\n  \
         \"grid_regression_300m_pct\": {grid_regression_300m_pct:.2}\n}}\n"
    );
    if let Err(e) = std::fs::write(&radio_out, &radio_json) {
        eprintln!("error: writing {radio_out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    print!("{radio_json}");
    eprintln!("# wrote {radio_out}");

    eprintln!("# timing campaign: sequential loop vs job pool ({CAMPAIGN_SAMPLES} samples)...");
    // One interarea A/B campaign, small enough to sample repeatedly. The
    // raw loop is the pre-pool code shape: merge each seeded pair as it
    // completes on the calling thread.
    let scale = Scale { runs: 4, duration_s: 40 };
    let campaign_cfg = ScenarioConfig::paper_dsrc_default().with_duration(scale.duration());
    let campaign_seed = 42u64;
    let raw_loop = || {
        let bins = usize::try_from(scale.duration_s.div_ceil(5)).expect("bin count fits");
        let mut baseline = TimeBins::new(SimDuration::from_secs(5), bins);
        let mut attacked = TimeBins::new(SimDuration::from_secs(5), bins);
        for i in 0..scale.runs {
            let seed = campaign_seed.wrapping_add(u64::from(i) * 0x9E37);
            baseline.merge(&interarea::run_one(&campaign_cfg, false, seed));
            attacked.merge(&interarea::run_one(&campaign_cfg, true, seed));
        }
        black_box((baseline, attacked));
    };
    let pooled = |jobs: usize| {
        parallel::set_jobs(jobs);
        let r = interarea::run_ab(&campaign_cfg, "bench", scale, campaign_seed);
        parallel::set_jobs(1);
        r
    };
    let reports_byte_identical = {
        let seq = pooled(1);
        let par = pooled(4);
        seq == par && format!("{seq:?}") == format!("{par:?}")
    };
    let (raw_loop_s, jobs1_s) = time_campaign_pair_s(raw_loop, || {
        black_box(pooled(1));
    });
    let (jobs1b_s, jobs4_s) = time_campaign_pair_s(
        || {
            black_box(pooled(1));
        },
        || {
            black_box(pooled(4));
        },
    );
    let sequential_regression_pct = (jobs1_s - raw_loop_s) / raw_loop_s * 100.0;
    let speedup_4jobs = jobs1b_s / jobs4_s;
    let available = parallel::available_jobs();
    // A 2× speedup needs hardware that can actually run 4 workers; on
    // smaller hosts the number is recorded but not gated.
    let speedup_gate_enforced = available >= 4;
    let parallel_json = format!(
        "{{\n  \"bench\": \"campaign_parallelism\",\n  \
         \"campaign\": \"interarea run_ab, {} runs x {} s\",\n  \
         \"samples\": {CAMPAIGN_SAMPLES},\n  \"available_parallelism\": {available},\n  \
         \"raw_loop_s\": {raw_loop_s:.3},\n  \"jobs1_s\": {jobs1_s:.3},\n  \
         \"jobs4_s\": {jobs4_s:.3},\n  \
         \"sequential_regression_pct\": {sequential_regression_pct:.2},\n  \
         \"speedup_4jobs\": {speedup_4jobs:.2},\n  \
         \"reports_byte_identical\": {reports_byte_identical},\n  \
         \"speedup_gate_enforced\": {speedup_gate_enforced}\n}}\n",
        scale.runs, scale.duration_s,
    );
    if let Err(e) = std::fs::write(&parallel_out, &parallel_json) {
        eprintln!("error: writing {parallel_out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    print!("{parallel_json}");
    eprintln!("# wrote {parallel_out}");

    if check && !grid_beats_linear_30m {
        eprintln!("error: grid receiver query lost to the linear scan at 30 m spacing");
        return std::process::ExitCode::FAILURE;
    }
    if check && grid_regression_300m_pct >= 2.0 {
        eprintln!(
            "error: grid receiver query regressed {grid_regression_300m_pct:.2}% \
             (>= 2%) at 300 m spacing"
        );
        return std::process::ExitCode::FAILURE;
    }
    if check && !reports_byte_identical {
        eprintln!("error: campaign reports differ between jobs=1 and jobs=4");
        return std::process::ExitCode::FAILURE;
    }
    if check && sequential_regression_pct >= 2.0 {
        eprintln!(
            "error: pooled sequential campaign path regressed \
             {sequential_regression_pct:.2}% (>= 2%) vs the raw loop"
        );
        return std::process::ExitCode::FAILURE;
    }
    if check && speedup_gate_enforced && speedup_4jobs < 2.0 {
        eprintln!(
            "error: campaign speedup at 4 jobs is {speedup_4jobs:.2}x (< 2x) \
             on a {available}-core host"
        );
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_write_both_reports_without_gating() {
        let a = parse(&[]).expect("no arguments is valid");
        assert!(!a.check);
        assert_eq!((a.radio_out.as_str(), a.parallel_out.as_str()), (REPORTS[0], REPORTS[1]));
    }

    #[test]
    fn check_gates_and_paths_bind_in_report_order() {
        let a = parse(&["/tmp/r.json", "--check", "/tmp/p.json"]).expect("valid");
        assert!(a.check);
        assert_eq!(a.radio_out, "/tmp/r.json");
        assert_eq!(a.parallel_out, "/tmp/p.json");
    }

    #[test]
    fn rejects_a_mistyped_flag_instead_of_writing_a_file_named_after_it() {
        let err = parse(&["--chek"]).unwrap_err();
        assert!(err.contains("unknown flag --chek"), "got: {err}");
    }

    #[test]
    fn rejects_more_paths_than_reports() {
        let err = parse(&["a.json", "b.json", "c.json", "--check"]).unwrap_err();
        assert!(err.contains("3 output paths"), "got: {err}");
    }
}
