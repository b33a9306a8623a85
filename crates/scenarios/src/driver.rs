//! What the per-scenario workload drivers ([`crate::interarea::drive`],
//! [`crate::intraarea::drive`]) share: the observers a caller attaches
//! and the run record they return.

use crate::config::ScenarioConfig;
use crate::progress;
use crate::world::World;
use geonet_sim::{SharedAuditor, SharedRegistry, SharedSink, SharedTopo};
use std::time::Instant;

/// The observers a driver attaches to its world, right after building
/// it and before the scenario's static nodes are added. Detached slots
/// cost nothing.
#[derive(Default)]
pub struct Observers {
    /// Receives every node's [`geonet_sim::TraceEvent`]s.
    pub trace: Option<SharedSink>,
    /// Collects hot-path timings and state-depth gauges.
    pub telemetry: Option<SharedRegistry>,
    /// Samples state-digest checkpoints; stamped with the run's
    /// scenario, seed, attacked flag, duration and attack range.
    pub auditor: Option<SharedAuditor>,
    /// Samples connectivity snapshots; stamped with the run's scenario,
    /// seed, attacked flag, attack range and vehicle range.
    pub topo: Option<SharedTopo>,
}

impl Observers {
    /// Only a trace sink — the input of [`crate::forensics`] and of the
    /// invariant checker.
    #[must_use]
    pub fn traced(sink: SharedSink) -> Self {
        Observers { trace: Some(sink), ..Observers::default() }
    }

    /// Attaches every present observer to `w`, stamping the recorders'
    /// metadata so serialized artifacts are self-describing.
    pub(crate) fn attach(self, w: &mut World, scenario: &str, attacked: bool, seed: u64) {
        let cfg = *w.config();
        if let Some(sink) = self.trace {
            w.set_trace_sink(sink);
        }
        if let Some(registry) = self.telemetry {
            w.set_telemetry(registry);
        }
        let meta = run_meta(&cfg, scenario, attacked, seed);
        if let Some(auditor) = self.auditor {
            let duration = ("duration_s", cfg.duration.as_secs().to_string());
            for (key, value) in meta.iter().cloned().chain([duration]) {
                auditor.borrow_mut().set_meta(key, value);
            }
            w.set_auditor(auditor);
        }
        if let Some(topo) = self.topo {
            let range = ("v2v_range_m", format!("{:.1}", cfg.v2v_range));
            for (key, value) in meta.into_iter().chain([range]) {
                topo.borrow_mut().set_meta(key, value);
            }
            w.set_topo_observer(topo);
        }
    }
}

/// The metadata every run artifact carries.
pub(crate) fn run_meta(
    cfg: &ScenarioConfig,
    scenario: &str,
    attacked: bool,
    seed: u64,
) -> [(&'static str, String); 4] {
    [
        ("scenario", scenario.to_string()),
        ("seed", seed.to_string()),
        ("attacked", attacked.to_string()),
        ("attack_range_m", format!("{:.1}", cfg.attack_range)),
    ]
}

/// What a driver returns: per-packet outcomes in generation order and
/// the world's closing counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Run<T> {
    /// One outcome per generated packet, in generation order.
    pub outcomes: Vec<T>,
    /// Events the kernel dispatched.
    pub events: u64,
    /// Frames put on the air.
    pub frames_on_air: u64,
    /// Bytes put on the air.
    pub bytes_on_air: u64,
}

impl<T> Run<T> {
    /// Reads the closing counters of a drained world and reports the
    /// run to [`crate::progress`].
    pub(crate) fn finish(w: &World, started: Option<Instant>, outcomes: Vec<T>) -> Self {
        progress::run_completed(started, w.events_processed(), w.config().duration);
        Run {
            outcomes,
            events: w.events_processed(),
            frames_on_air: w.frames_on_air(),
            bytes_on_air: w.bytes_on_air(),
        }
    }
}
