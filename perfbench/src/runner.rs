//! World-level runners of the paper's two setups, timed from outside.
//!
//! Each runner replays what `interarea::run_one` / `intraarea::run_one`
//! do, through `World`'s public API only, with a clock around every
//! simulated second (the runner's `run_until` plus origination) and
//! around every call into the world. With telemetry attached, the
//! world's own span histograms give the per-layer split of that time.

use crate::alloc::{self, Counts};
use crate::layers::Spans;
use crate::sched;
use geonet::RouterStats;
use geonet_attack::BlockageMode;
use geonet_geo::{Area, Position};
use geonet_radio::{AccessTechnology, NodeId, RangeProfile};
use geonet_scenarios::config::Scale;
use geonet_scenarios::intraarea::{self, PacketOutcome};
use geonet_scenarios::{interarea, parallel, AbResult, AttackerSetup, ScenarioConfig, World};
use geonet_sim::{
    shared, shared_auditor, shared_registry, shared_topo, CountingSink, Histogram, SharedRegistry,
    SharedSink, SimDuration, SimTime, TimeBins,
};
use std::time::Instant;

/// Which of the paper's setups a world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 7 inter-area interception: one vulnerable GF packet per second
    /// towards static destinations 20 m past each road end.
    InterArea,
    /// Fig 9 intra-area blockage: one road-wide GeoBroadcast per second,
    /// attacked by a `ClampRhl` replayer.
    Blockage,
}

impl Kind {
    /// The lowest attacker-free reception a correct world can show. CBF
    /// floods reach nearly every vehicle. Greedy unicasts to the road-end
    /// destinations reach about 53.5 % (the paper implies 54.4 %), since
    /// stale LocT entries strand packets even without an attacker.
    pub fn min_baseline_reception(self) -> f64 {
        match self {
            Kind::InterArea => 0.4,
            Kind::Blockage => 0.9,
        }
    }
}

/// What is attached to a world while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the untraced path users pay for.
    Bare,
    /// A telemetry registry only, whose span histograms give the layers.
    Traced,
    /// Tracer (counting sink), telemetry, auditor (1 s) and topology
    /// observer (5 s), as `repro --metrics --audit --topology` runs.
    Observed,
}

/// The world configuration of a setup at a given run length.
pub fn config(kind: Kind, duration_s: u64) -> ScenarioConfig {
    let base = ScenarioConfig::paper_dsrc_default();
    let cfg = match kind {
        // The paper default attacker is the wN (327 m) interceptor.
        Kind::InterArea => base,
        Kind::Blockage => base.with_attack_range(profile().nlos_median()),
    };
    cfg.with_duration(SimDuration::from_secs(duration_s))
}

fn profile() -> RangeProfile {
    RangeProfile::for_technology(AccessTechnology::Dsrc)
}

/// Seed of pair `i` of a batch, derived as the library's `run_ab` does.
pub fn pair_seed(kind: Kind, base: u64, i: u32) -> u64 {
    let stride = match kind {
        Kind::InterArea => 0x9E37,
        Kind::Blockage => 0x517C,
    };
    base.wrapping_add(u64::from(i) * stride)
}

/// The telemetry histograms a traced world yields.
#[derive(Clone, Default)]
pub struct Histograms {
    /// `world_dispatch_ns`.
    pub dispatch: Histogram,
    /// `traffic_step_ns`.
    pub traffic: Histogram,
    /// `radio_broadcast_ns`.
    pub broadcast: Histogram,
    /// `radio_receiver_scan_ns`.
    pub scan: Histogram,
    /// `router_handle_frame_ns`.
    pub handle_frame: Histogram,
}

impl Histograms {
    fn read(registry: &SharedRegistry) -> Self {
        let reg = registry.borrow();
        let get = |name: &str| reg.histogram(name).cloned().unwrap_or_default();
        Histograms {
            dispatch: get("world_dispatch_ns"),
            traffic: get("traffic_step_ns"),
            broadcast: get("radio_broadcast_ns"),
            scan: get("radio_receiver_scan_ns"),
            handle_frame: get("router_handle_frame_ns"),
        }
    }

    /// Folds another world's histograms into these.
    pub fn merge(&mut self, other: &Histograms) {
        self.dispatch.merge(&other.dispatch);
        self.traffic.merge(&other.traffic);
        self.broadcast.merge(&other.broadcast);
        self.scan.merge(&other.scan);
        self.handle_frame.merge(&other.handle_frame);
    }

    /// The number of spans recorded.
    pub fn spans(&self) -> u64 {
        self.dispatch.count()
            + self.traffic.count()
            + self.broadcast.count()
            + self.scan.count()
            + self.handle_frame.count()
    }
}

/// What a traced or observed world reports besides the bare facts.
#[derive(Clone, Default)]
pub struct Traced {
    /// Span sums and the runner's own clocks.
    pub spans: Spans,
    /// The span histograms.
    pub hist: Histograms,
    /// Highest sampled event-queue length.
    pub queue_peak: u64,
    /// Trace events counted by the sink (observed worlds only).
    pub trace_events: u64,
}

/// The outcome of one seeded world.
#[derive(Clone)]
pub struct WorldRun {
    /// Simulated seconds.
    pub sim_s: f64,
    /// Set-up plus driving, seconds.
    pub wall_s: f64,
    /// Wall time of each simulated second, nanoseconds.
    pub steps_ns: Vec<u64>,
    /// Reception per 5 s bin, as the library's runners fold it.
    pub bins: TimeBins,
    /// Kernel events dispatched.
    pub events: u64,
    /// Frames put on the air.
    pub frames: u64,
    /// Bytes put on the air.
    pub bytes: u64,
    /// Final `audit_checkpoint().combined`.
    pub digest: u64,
    /// Allocations of this world's thread from `World::new` to the end.
    pub allocs: Counts,
    /// Highest process live size above the start, bytes (meaningful when
    /// one world runs at a time).
    pub peak_live: u64,
    /// On-CPU time of this world's thread, nanoseconds.
    pub on_cpu_ns: u64,
    /// Run-queue wait of this world's thread, nanoseconds.
    pub runq_wait_ns: u64,
    /// Router statistics summed over the world.
    pub stats: RouterStats,
    /// Frames the attacker replayed.
    pub replays: u64,
    /// Layer data, when telemetry was attached.
    pub traced: Option<Traced>,
}

impl WorldRun {
    /// The facts that must repeat exactly whenever this world is rerun
    /// with the same observers.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64, Counts) {
        (self.events, self.frames, self.bytes, self.digest, self.allocs)
    }

    /// The behaviour facts, which no observer may change.
    pub fn behaviour(&self) -> (u64, u64, u64, u64, &TimeBins) {
        (self.events, self.frames, self.bytes, self.digest, &self.bins)
    }
}

fn sum_of(registry: Option<&SharedRegistry>, name: &str) -> u64 {
    registry.map_or(0, |r| r.borrow().histogram(name).map_or(0, Histogram::sum))
}

/// Runs one seeded world of `kind` with `mode`'s observers attached.
pub fn run_world(
    kind: Kind,
    cfg: &ScenarioConfig,
    attacked: bool,
    seed: u64,
    mode: Mode,
) -> WorldRun {
    let sched0 = sched::thread_now();
    let allocs0 = alloc::thread();
    // Peak tracking is process-wide, so it restarts per world only when
    // worlds run one at a time.
    let track_peak = parallel::jobs() == 1;
    let live0 = if track_peak { alloc::reset_peak() } else { 0 };
    let t0 = Instant::now();
    let (mut w, dests) = build(kind, cfg, attacked, seed);
    let length = cfg.road.length;

    let registry = (mode != Mode::Bare).then(shared_registry);
    if let Some(r) = &registry {
        w.set_telemetry(r.clone());
    }
    let sink = (mode == Mode::Observed).then(|| shared(CountingSink::new()));
    if let Some(s) = &sink {
        let s: SharedSink = s.clone();
        w.set_trace_sink(s);
        w.set_auditor(shared_auditor(SimDuration::from_secs(1)));
        w.set_topo_observer(shared_topo(SimDuration::from_secs(5)));
        if kind == Kind::InterArea {
            w.set_topo_destination(Position::new(length + 20.0, 0.0));
        }
    }

    let east_area = Area::circle(Position::new(length + 20.0, 0.0), 40.0);
    let west_area = Area::circle(Position::new(-20.0, 0.0), 40.0);
    let road_area = intraarea::road_area(cfg);
    let duration_s = cfg.duration.as_secs();
    let mut spans = Spans::default();
    let mut steps_ns = Vec::with_capacity(usize::try_from(duration_s).unwrap_or(0));
    let mut unicasts = Vec::new();
    let mut floods = Vec::new();
    for t in 1..duration_s {
        let step = Instant::now();
        w.run_until(SimTime::from_secs(t));
        spans.run_until_ns += elapsed_ns(step);
        let picked = match dests {
            Some((east, west)) => pick_vulnerable(&mut w, cfg).map(|(node, eastbound)| {
                let (area, dest) = if eastbound { (&east_area, east) } else { (&west_area, west) };
                (node, area, Some(dest), Vec::new())
            }),
            None => w.random_on_road_vehicle().map(|vid| {
                let node = w.vehicle_node(vid);
                (node, &road_area, None, w.on_road_nodes())
            }),
        };
        if let Some((node, area, dest, snapshot)) = picked {
            let x = w.node_position(node).x;
            let payload = vec![if dest.is_some() { 0x5A } else { 0xCB }];
            let bcast0 = sum_of(registry.as_ref(), "radio_broadcast_ns");
            let call = Instant::now();
            let key = w.originate_from(node, area, payload);
            spans.originate_ns += elapsed_ns(call);
            spans.broadcast_in_originate_ns +=
                sum_of(registry.as_ref(), "radio_broadcast_ns") - bcast0;
            match dest {
                Some(dest) => unicasts.push((key, w.now(), dest)),
                None => floods.push((key, w.now(), x, snapshot)),
            }
        }
        steps_ns.push(elapsed_ns(step));
    }
    let step = Instant::now();
    w.run_to_end();
    spans.run_until_ns += elapsed_ns(step);
    steps_ns.push(elapsed_ns(step));
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = alloc::thread().since(allocs0);
    let peak_live = if track_peak { alloc::peak().saturating_sub(live0) } else { 0 };
    let (on_cpu_ns, runq_wait_ns) = sched::thread_now().since(sched0);
    spans.total_ns = steps_ns.iter().sum();

    let bins = match kind {
        Kind::InterArea => {
            let mut bins = TimeBins::new(SimDuration::from_secs(5), bin_count(duration_s));
            for (key, at, dest) in unicasts {
                bins.record(at, w.was_received(key, dest));
            }
            bins
        }
        Kind::Blockage => {
            let outcomes: Vec<PacketOutcome> = floods
                .into_iter()
                .map(|(key, generated_at, source_x, snapshot)| {
                    let received =
                        snapshot.iter().filter(|n| w.was_received(key, **n)).count() as u64;
                    PacketOutcome {
                        generated_at,
                        source_x,
                        candidates: snapshot.len() as u64,
                        received,
                    }
                })
                .collect();
            intraarea::outcomes_to_bins(&outcomes, cfg.duration)
        }
    };
    let traced = registry.map(|r| {
        let hist = Histograms::read(&r);
        spans.dispatch_ns = hist.dispatch.sum();
        spans.traffic_ns = hist.traffic.sum();
        spans.broadcast_ns = hist.broadcast.sum();
        spans.scan_ns = hist.scan.sum();
        spans.handle_frame_ns = hist.handle_frame.sum();
        let queue_peak = r
            .borrow()
            .gauge("event_queue_len")
            .and_then(|g| g.stats().max())
            .map_or(0, |m| m as u64);
        let trace_events =
            sink.map_or(0, |s| s.borrow().totals().top_counters().iter().map(|(_, n)| n).sum());
        Traced { spans, hist, queue_peak, trace_events }
    });
    let replays = w
        .inter_attacker()
        .map(|a| a.beacons_replayed())
        .or_else(|| w.intra_attacker().map(|a| a.packets_replayed()))
        .unwrap_or(0);
    WorldRun {
        sim_s: cfg.duration.as_secs_f64(),
        wall_s,
        steps_ns,
        bins,
        events: w.events_processed(),
        frames: w.frames_on_air(),
        bytes: w.bytes_on_air(),
        digest: w.audit_checkpoint().combined,
        allocs,
        peak_live,
        on_cpu_ns,
        runq_wait_ns,
        stats: w.aggregate_stats(),
        replays,
        traced,
    }
}

/// The world's set-up: `World::new` plus, for inter-area worlds, the
/// east and west destination nodes.
pub fn build(
    kind: Kind,
    cfg: &ScenarioConfig,
    attacked: bool,
    seed: u64,
) -> (World, Option<(NodeId, NodeId)>) {
    let setup = attacked.then_some(match kind {
        Kind::InterArea => AttackerSetup::InterArea,
        Kind::Blockage => AttackerSetup::IntraArea(BlockageMode::ClampRhl),
    });
    let mut w = World::new(*cfg, setup, seed);
    let length = cfg.road.length;
    let dests = (kind == Kind::InterArea).then(|| {
        (
            w.add_static_node(Position::new(length + 20.0, 2.5), cfg.v2v_range),
            w.add_static_node(Position::new(-20.0, 2.5), cfg.v2v_range),
        )
    });
    (w, dests)
}

/// Samples vehicles until one can emit a vulnerable packet, exactly as
/// `interarea::run_one` does; returns the node and whether it sends
/// eastbound.
fn pick_vulnerable(w: &mut World, cfg: &ScenarioConfig) -> Option<(NodeId, bool)> {
    for _ in 0..16 {
        let vid = w.random_on_road_vehicle()?;
        let node = w.vehicle_node(vid);
        let x = w.node_position(node).x;
        let eastbound = match interarea::vulnerable_directions(cfg, x) {
            (true, true) => w.workload_coin(),
            (true, false) => true,
            (false, true) => false,
            (false, false) => continue,
        };
        return Some((node, eastbound));
    }
    None
}

fn bin_count(duration_s: u64) -> usize {
    usize::try_from(duration_s.div_ceil(5)).expect("bin count fits")
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One attacker-free (A) and one attacked (B) world of the same seed.
pub type Pair = [WorldRun; 2];

/// Runs `pairs` seeded A/B pairs of `kind` on the campaign pool.
pub fn ab_batch(kind: Kind, cfg: &ScenarioConfig, seed: u64, pairs: u32, mode: Mode) -> Vec<Pair> {
    parallel::run_indexed(pairs, |i| {
        let s = pair_seed(kind, seed, i);
        [run_world(kind, cfg, false, s, mode), run_world(kind, cfg, true, s, mode)]
    })
}

/// The A/B result of a batch of pairs, merged as `run_ab` merges.
pub fn merge(label: &str, pairs: &[Pair]) -> AbResult {
    let mut baseline = pairs[0][0].bins.clone();
    let mut attacked = pairs[0][1].bins.clone();
    for [a, b] in &pairs[1..] {
        baseline.merge(&a.bins);
        attacked.merge(&b.bins);
    }
    AbResult { label: label.to_string(), baseline, attacked }
}

/// The attack-range settings of Figure 7a, labelled as the library
/// labels them.
pub fn fig7a_settings() -> [(&'static str, f64); 3] {
    let p = profile();
    [("mL", p.los_median()), ("mN", p.nlos_median()), ("wN", p.nlos_worst())]
}

/// Figure 7a at `scale` through the campaign pool: every setting's
/// seeded A/B pairs, merged per setting. Returns the merged results and
/// every pair, setting by setting.
pub fn fig7a(scale: Scale, seed: u64, mode: Mode) -> (Vec<AbResult>, Vec<Pair>) {
    let mut results = Vec::new();
    let mut all = Vec::new();
    for (label, range) in fig7a_settings() {
        let cfg = config(Kind::InterArea, scale.duration_s).with_attack_range(range);
        let pairs = ab_batch(Kind::InterArea, &cfg, seed, scale.runs, mode);
        results.push(merge(label, &pairs));
        all.extend(pairs);
    }
    (results, all)
}

/// The library's own runners on the first pair of a batch, for the
/// bit-for-bit check of the benchmark's runners.
pub fn reference_bins(kind: Kind, cfg: &ScenarioConfig, seed: u64) -> [TimeBins; 2] {
    let s = pair_seed(kind, seed, 0);
    [false, true].map(|attacked| match kind {
        Kind::InterArea => interarea::run_one(cfg, attacked, s),
        Kind::Blockage => {
            intraarea::outcomes_to_bins(&intraarea::run_one(cfg, attacked, s), cfg.duration)
        }
    })
}
