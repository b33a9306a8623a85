//! Layer probes: the public calls that have no telemetry span, timed and
//! allocation-counted per call on inputs shaped like a workload's.

use crate::alloc;
use crate::runner::{self, config, Kind};
use crate::stats::median;
use geonet::{CertificateAuthority, Frame, GnAddress, GnConfig, GnRouter, RouterAction};
use geonet_geo::{GeoReference, Heading, Position};
use geonet_radio::{Medium, NodeId};
use geonet_scenarios::intraarea;
use geonet_sim::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Cost of one call.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Median over batches of the mean wall time per call, nanoseconds.
    pub ns: f64,
    /// Allocations per call.
    pub allocs: f64,
}

const BATCHES: usize = 15;

/// Times `f` in `BATCHES` batches of `calls`, after one warm-up batch.
fn measure(calls: u32, mut f: impl FnMut()) -> Cost {
    for _ in 0..calls {
        f();
    }
    let mut means = Vec::with_capacity(BATCHES);
    let mut allocs = 0;
    for _ in 0..BATCHES {
        let a0 = alloc::thread();
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        means.push(t.elapsed().as_nanos() as f64 / f64::from(calls));
        allocs = alloc::thread().since(a0).allocs;
    }
    Cost { ns: median(&mut means), allocs: allocs as f64 / f64::from(calls) }
}

/// Every probe's cost for one workload kind.
pub struct Probes {
    /// `Verifier::verify` on the kind's dominant packet.
    pub verify: Cost,
    /// `GnPacket::encode` and `encode_protected`, alternating.
    pub encode: Cost,
    /// `GnRouter::handle_frame` on a fresh beacon.
    pub beacon: Cost,
    /// `GnRouter::handle_frame` on a duplicate GeoBroadcast.
    pub dup_gbc: Cost,
    /// `Medium::receivers_into` at 30 m spacing.
    pub receivers_into: Cost,
    /// `World::audit_checkpoint` mid-run.
    pub audit_checkpoint: Cost,
    /// `World::topo_snapshot` mid-run.
    pub topo_snapshot: Cost,
}

fn router(ca: &CertificateAuthority, addr: u64, cfg: GnConfig) -> GnRouter {
    let addr = GnAddress::vehicle(addr);
    GnRouter::new(ca.enroll(addr), ca.verifier(), cfg, GeoReference::default())
}

/// Runs every probe on inputs shaped like `kind`'s worlds.
pub fn run(kind: Kind, seed: u64) -> Probes {
    let cfg = config(kind, 200);
    let now = SimTime::from_secs(1);
    let ca = CertificateAuthority::new(seed);
    let sender_pos = Position::new(520.0, 2.5);
    let own = Position::new(500.0, 2.5);
    let sender = router(&ca, 2, cfg.gn);
    let beacon = sender.make_beacon(now, sender_pos, 30.0, Heading::EAST);
    let gbc = {
        let mut src = router(&ca, 3, cfg.gn);
        let (_, actions) = src.originate(
            &intraarea::road_area(&cfg),
            vec![0xCB],
            now,
            sender_pos,
            30.0,
            Heading::EAST,
        );
        actions
            .into_iter()
            .find_map(|a| match a {
                RouterAction::Transmit(f) => Some(f),
                _ => None,
            })
            .expect("a GeoBroadcast origination transmits")
    };
    // Inter-area worlds mostly carry beacons, blockage worlds floods.
    let dominant: &Frame = match kind {
        Kind::InterArea => &beacon,
        Kind::Blockage => &gbc,
    };
    let verifier = ca.verifier();
    let verify = measure(4_000, || {
        black_box(verifier.verify(black_box(&dominant.msg)));
    });
    let mut protected = false;
    let encode = measure(4_000, || {
        protected = !protected;
        let p = &black_box(dominant).msg.packet;
        black_box(if protected { p.encode_protected() } else { p.encode() });
    });

    let mut rx = router(&ca, 1, cfg.gn);
    let beacon_cost = measure(4_000, || {
        black_box(rx.handle_frame(black_box(&beacon), own, now));
    });
    let mut rx = router(&ca, 4, cfg.gn);
    // The first reception arms CBF; every call after it is a duplicate.
    let _ = rx.handle_frame(&gbc, own, now);
    let dup_gbc = measure(4_000, || {
        black_box(rx.handle_frame(black_box(&gbc), own, now));
    });

    let mut medium = Medium::new();
    let spacing = 30.0;
    let count = (cfg.road.length / spacing) as u32;
    for i in 0..count {
        medium.register(Position::new(f64::from(i) * spacing, 2.5), cfg.v2v_range);
    }
    let mut out = Vec::new();
    let mut next = 0u32;
    let receivers_into = measure(2_000, || {
        next = (next + 1) % count;
        let from = NodeId(next);
        medium.receivers_into(from, medium.tx_range(from), &mut out);
        black_box(out.len());
    });

    let (mut w, _) = runner::build(kind, &cfg, true, seed);
    w.set_topo_destination(Position::new(cfg.road.length + 20.0, 0.0));
    w.run_until(SimTime::from_secs(60));
    let audit_checkpoint = measure(20, || {
        black_box(w.audit_checkpoint());
    });
    let topo_snapshot = measure(5, || {
        black_box(w.topo_snapshot());
    });
    Probes {
        verify,
        encode,
        beacon: beacon_cost,
        dup_gbc,
        receivers_into,
        audit_checkpoint,
        topo_snapshot,
    }
}
