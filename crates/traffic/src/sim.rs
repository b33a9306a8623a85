//! The fixed-timestep traffic simulation.

use crate::road::{Direction, RoadConfig};
use crate::vehicle::{Vehicle, VehicleId};
use geonet_geo::Position;
use geonet_sim::{SimTime, StateHasher, Telemetry, TraceEvent, Tracer};
use std::collections::HashMap;
use std::fmt;

/// Stable wire code for a direction, for audit digests.
fn direction_code(d: Direction) -> u8 {
    match d {
        Direction::East => 0,
        Direction::West => 1,
    }
}

/// A hazard blocking all lanes of one direction at a longitudinal
/// position (the paper's Figure 11a event blocks both eastbound lanes at
/// 3 600 m).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hazard {
    direction: Direction,
    s: f64,
}

/// The traffic microsimulation.
///
/// Vehicles follow the Intelligent Driver Model within their lane. The road
/// is pre-filled at the configured inter-vehicle spacing so runs start in
/// steady state (the paper's "vehicles are 30 meters apart" default), and
/// new vehicles enter at 30 m/s whenever the vehicle ahead is more than the
/// spacing away from the entrance.
///
/// Hazards block a direction: vehicles treat the hazard as a stopped
/// leader and queue behind it. Each direction has an *entry gate* that the
/// scenario layer closes when the entrance is informed of a hazard — the
/// mechanism behind the paper's Figure 12 traffic-jam comparison.
///
/// # Example
///
/// ```
/// use geonet_traffic::{Direction, RoadConfig, TrafficSim};
///
/// let mut sim = TrafficSim::new(RoadConfig::paper_default());
/// assert!(sim.count_on_road() > 100); // pre-filled 4 km road
/// sim.add_hazard(Direction::East, 3_600.0);
/// sim.set_entry_open(Direction::East, false); // entrance informed
/// for _ in 0..100 { sim.step(0.1); }
/// ```
pub struct TrafficSim {
    road: RoadConfig,
    vehicles: Vec<Vehicle>,
    hazards: Vec<Hazard>,
    entry_open: HashMap<Direction, bool>,
    next_lane: HashMap<Direction, u8>,
    last_entered: HashMap<Direction, VehicleId>,
    collisions: u64,
    elapsed: f64,
    tracer: Tracer,
    telemetry: Telemetry,
    /// Per-lane scratch lists of active vehicle indices, one slot per
    /// (direction, lane) in stepping order (see [`TrafficSim::lane_slot`]),
    /// kept across steps so that stepping allocates nothing in steady
    /// state.
    lane_members: Vec<Vec<usize>>,
    /// Scratch accelerations of the lane being stepped.
    accels: Vec<f64>,
}

impl TrafficSim {
    /// Creates a pre-filled simulation from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`RoadConfig::validate`].
    #[must_use]
    pub fn new(road: RoadConfig) -> Self {
        road.validate().unwrap_or_else(|e| panic!("invalid road config: {e}"));
        let mut sim = TrafficSim {
            road,
            vehicles: Vec::new(),
            hazards: Vec::new(),
            entry_open: road.directions().iter().map(|&d| (d, true)).collect(),
            next_lane: road.directions().iter().map(|&d| (d, 0)).collect(),
            last_entered: HashMap::new(),
            collisions: 0,
            elapsed: 0.0,
            tracer: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
            lane_members: Vec::new(),
            accels: Vec::new(),
        };
        sim.prefill();
        sim
    }

    /// Pre-fills each direction with vehicles every `spacing` metres,
    /// alternating lanes, travelling at the entry speed.
    fn prefill(&mut self) {
        for &direction in self.road.directions() {
            let mut lane = 0u8;
            let mut s = self.road.length;
            while s >= self.road.spacing {
                let id = self.push_vehicle(direction, lane, s, self.road.entry_speed);
                self.last_entered.insert(direction, id);
                lane = (lane + 1) % self.road.lanes_per_direction;
                s -= self.road.spacing;
            }
            self.next_lane.insert(direction, lane);
        }
    }

    fn push_vehicle(&mut self, direction: Direction, lane: u8, s: f64, v: f64) -> VehicleId {
        let id = VehicleId(u32::try_from(self.vehicles.len()).expect("too many vehicles"));
        self.vehicles.push(Vehicle { id, direction, lane, s, v, exited: false });
        id
    }

    /// The road configuration.
    #[must_use]
    pub fn road(&self) -> &RoadConfig {
        &self.road
    }

    /// Simulated seconds elapsed.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// All vehicles ever spawned (including exited ones), indexable by
    /// [`VehicleId::index`].
    #[must_use]
    pub fn all_vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// The vehicles currently on the road.
    pub fn active_vehicles(&self) -> impl Iterator<Item = &Vehicle> {
        self.vehicles.iter().filter(|v| !v.exited)
    }

    /// Looks up a vehicle by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this simulation.
    #[must_use]
    pub fn vehicle(&self, id: VehicleId) -> &Vehicle {
        &self.vehicles[id.index()]
    }

    /// Planar position of a vehicle.
    #[must_use]
    pub fn position(&self, id: VehicleId) -> Position {
        let v = self.vehicle(id);
        v.position(&self.road)
    }

    /// Number of vehicles currently on the road segment proper (not yet
    /// past its end) — the paper's Figure 12 metric.
    #[must_use]
    pub fn count_on_road(&self) -> usize {
        self.active_vehicles().filter(|v| v.s <= self.road.length).count()
    }

    /// The vehicles on the road segment proper (excludes vehicles coasting
    /// through the off-road margin).
    pub fn on_segment_vehicles(&self) -> impl Iterator<Item = &Vehicle> {
        let length = self.road.length;
        self.active_vehicles().filter(move |v| v.s <= length)
    }

    /// Number of gap-collapse events observed (gap ≤ 0 between follower
    /// and leader). IDM alone never produces these; they indicate scripted
    /// interference.
    #[must_use]
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Opens or closes a direction's entry gate. While closed, no vehicles
    /// enter (the entrance has been informed of a hazard and traffic
    /// diverts).
    pub fn set_entry_open(&mut self, direction: Direction, open: bool) {
        self.entry_open.insert(direction, open);
    }

    /// Whether a direction's entry gate is open.
    #[must_use]
    pub fn entry_open(&self, direction: Direction) -> bool {
        self.entry_open.get(&direction).copied().unwrap_or(false)
    }

    /// Folds the simulation's canonical state — clock, collision count,
    /// every vehicle's kinematics, hazards and per-direction entry
    /// bookkeeping — into an audit digest. The hash-map state is walked
    /// via [`RoadConfig::directions`] so the digest never depends on
    /// `HashMap` iteration order.
    pub fn digest_into(&self, h: &mut StateHasher) {
        h.write_f64(self.elapsed);
        h.write_u64(self.collisions);
        h.write_u64(self.vehicles.len() as u64);
        for v in &self.vehicles {
            h.write_u64(u64::from(v.id.0));
            h.write_u8(direction_code(v.direction));
            h.write_u8(v.lane);
            h.write_f64(v.s);
            h.write_f64(v.v);
            h.write_bool(v.exited);
        }
        h.write_u64(self.hazards.len() as u64);
        for hz in &self.hazards {
            h.write_u8(direction_code(hz.direction));
            h.write_f64(hz.s);
        }
        for &d in self.road.directions() {
            h.write_u8(direction_code(d));
            h.write_bool(self.entry_open(d));
            h.write_u8(self.next_lane.get(&d).copied().unwrap_or(0));
            match self.last_entered.get(&d) {
                Some(id) => h.write_u64(u64::from(id.0) + 1),
                None => h.write_u64(0),
            }
        }
    }

    /// Places a hazard blocking all lanes of `direction` at longitudinal
    /// position `s`. Vehicles behind it queue; vehicles past it drive on
    /// and exit.
    ///
    /// # Panics
    ///
    /// Panics if `s` is outside the road.
    pub fn add_hazard(&mut self, direction: Direction, s: f64) {
        assert!(
            (0.0..=self.road.length).contains(&s),
            "hazard at {s} outside road of length {}",
            self.road.length
        );
        self.hazards.push(Hazard { direction, s });
        self.tracer.emit(SimTime::from_secs_f64(self.elapsed), || TraceEvent::HazardOnset { x: s });
    }

    /// Attaches a tracer; hazard onsets and collisions are emitted as
    /// [`TraceEvent`]s from now on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a telemetry handle; every [`TrafficSim::step`] is
    /// wall-clock timed through it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Removes all hazards in `direction` (the event has been cleared).
    pub fn clear_hazards(&mut self, direction: Direction) {
        self.hazards.retain(|h| h.direction != direction);
    }

    /// The nearest hazard ahead of longitudinal position `s` in
    /// `direction`, if any.
    fn hazard_ahead(&self, direction: Direction, s: f64) -> Option<f64> {
        self.hazards
            .iter()
            .filter(|h| h.direction == direction && h.s > s)
            .map(|h| h.s)
            .min_by(|a, b| a.partial_cmp(b).expect("hazard positions are finite"))
    }

    /// The scratch slot of a lane: eastbound before westbound, lanes
    /// ascending within a direction — the order lanes are stepped in.
    fn lane_slot(&self, direction: Direction, lane: u8) -> usize {
        usize::from(direction_code(direction)) * usize::from(self.road.lanes_per_direction)
            + usize::from(lane)
    }

    /// Advances the simulation by `dt` seconds (the paper uses 0.1 s).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive.
    pub fn step(&mut self, dt: f64) {
        assert!(dt.is_finite() && dt > 0.0, "invalid timestep: {dt}");
        let _span = self.telemetry.time("traffic_step_ns");
        self.elapsed += dt;

        // Group active vehicle indices per (direction, lane), sorted by
        // longitudinal position descending (leader first; the sort is
        // stable, so ties keep index order).
        let mut lanes = std::mem::take(&mut self.lane_members);
        // Sized on the first step rather than in `new`, so that building a
        // simulation allocates nothing extra.
        lanes.resize_with(2 * usize::from(self.road.lanes_per_direction), Vec::new);
        let mut accels = std::mem::take(&mut self.accels);
        for (i, v) in self.vehicles.iter().enumerate() {
            if !v.exited {
                lanes[self.lane_slot(v.direction, v.lane)].push(i);
            }
        }

        for idxs in &mut lanes {
            idxs.sort_by(|&a, &b| {
                self.vehicles[b].s.partial_cmp(&self.vehicles[a].s).expect("positions are finite")
            });
            // Compute accelerations against the current (pre-update) state,
            // then integrate — a synchronous update, standard for IDM.
            accels.clear();
            for (rank, &i) in idxs.iter().enumerate() {
                let v = &self.vehicles[i];
                let leader_gap = if rank == 0 {
                    None
                } else {
                    let lead = &self.vehicles[idxs[rank - 1]];
                    Some((lead.s - self.road.vehicle_length - v.s, lead.v))
                };
                // A hazard acts as a stopped, zero-length leader.
                let hazard_gap = self.hazard_ahead(v.direction, v.s).map(|hs| (hs - v.s, 0.0f64));
                let binding = match (leader_gap, hazard_gap) {
                    (Some(l), Some(h)) => Some(if l.0 <= h.0 { l } else { h }),
                    (l, h) => l.or(h),
                };
                let a = match binding {
                    Some((gap, lead_v)) => {
                        if gap <= 0.0 {
                            // Gap collapse: scripted interference (never
                            // produced by IDM itself). Record and stop dead.
                            self.collisions += 1;
                            let x = v.s;
                            self.tracer.emit(SimTime::from_secs_f64(self.elapsed), || {
                                TraceEvent::Collision { x }
                            });
                            -f64::INFINITY // sentinel: stop below
                        } else {
                            self.road.idm.acceleration(v.v, gap, v.v - lead_v)
                        }
                    }
                    None => self.road.idm.free_road_acceleration(v.v),
                };
                accels.push(a);
            }
            for (&i, &a) in idxs.iter().zip(&accels) {
                let veh = &mut self.vehicles[i];
                if a == -f64::INFINITY {
                    veh.v = 0.0;
                    continue;
                }
                let v_new = (veh.v + a * dt).max(0.0);
                veh.s += (veh.v + v_new) / 2.0 * dt;
                veh.v = v_new;
            }
            idxs.clear();
        }
        self.lane_members = lanes;
        self.accels = accels;

        // Exits: the vehicle has driven past the off-road margin and can
        // no longer matter to anything on the segment.
        let cutoff = self.road.length + self.road.offroad_margin;
        for v in &mut self.vehicles {
            if !v.exited && v.s > cutoff {
                v.exited = true;
            }
        }

        // Entries.
        for &direction in self.road.directions() {
            self.try_spawn(direction);
        }
    }

    /// Entry rule: a vehicle enters at the configured speed when the last
    /// vehicle that entered this direction is more than `spacing` metres
    /// from the entrance (and the gate is open). Lanes are used round-robin.
    fn try_spawn(&mut self, direction: Direction) {
        if !self.entry_open(direction) {
            return;
        }
        if let Some(&last) = self.last_entered.get(&direction) {
            let lv = &self.vehicles[last.index()];
            if !lv.exited && lv.s <= self.road.spacing {
                return;
            }
        }
        let lane = *self.next_lane.get(&direction).unwrap_or(&0);
        // Lane safety: the rearmost vehicle in the target lane must also be
        // clear of the entrance.
        let lane_clear = self
            .vehicles
            .iter()
            .filter(|v| !v.exited && v.direction == direction && v.lane == lane)
            .all(|v| v.s > self.road.spacing);
        if !lane_clear {
            return;
        }
        let id = self.push_vehicle(direction, lane, 0.0, self.road.entry_speed);
        self.last_entered.insert(direction, id);
        self.next_lane.insert(direction, (lane + 1) % self.road.lanes_per_direction);
    }
}

impl fmt::Debug for TrafficSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrafficSim")
            .field("elapsed", &self.elapsed)
            .field("on_road", &self.count_on_road())
            .field("total_spawned", &self.vehicles.len())
            .field("hazards", &self.hazards.len())
            .field("collisions", &self.collisions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sim: &mut TrafficSim, seconds: f64) {
        let steps = (seconds / 0.1).round() as usize;
        for _ in 0..steps {
            sim.step(0.1);
        }
    }

    #[test]
    fn prefill_matches_spacing() {
        let sim = TrafficSim::new(RoadConfig::paper_default());
        // 4 000 / 30 = 133 vehicles pre-filled.
        assert_eq!(sim.count_on_road(), 133);
        // Consecutive vehicles in the direction stream are `spacing` apart.
        let mut ss: Vec<f64> = sim.active_vehicles().map(|v| v.s).collect();
        ss.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in ss.windows(2) {
            assert!((w[1] - w[0] - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn prefill_alternates_lanes() {
        let sim = TrafficSim::new(RoadConfig::paper_default());
        let mut by_lane = [0usize; 2];
        for v in sim.active_vehicles() {
            by_lane[v.lane as usize] += 1;
        }
        assert!(by_lane[0].abs_diff(by_lane[1]) <= 1, "{by_lane:?}");
    }

    #[test]
    fn two_way_prefills_both_directions() {
        let sim = TrafficSim::new(RoadConfig::paper_two_way());
        assert_eq!(sim.count_on_road(), 266);
        assert!(sim.active_vehicles().any(|v| v.direction == Direction::West));
    }

    #[test]
    fn steady_state_flow_is_stable() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        run(&mut sim, 60.0);
        // Entries balance exits: the on-road count stays near 133.
        let n = sim.count_on_road();
        assert!((120..=146).contains(&n), "count = {n}");
        // No collisions under pure IDM.
        assert_eq!(sim.collisions(), 0);
    }

    #[test]
    fn vehicles_exit_at_far_end() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        run(&mut sim, 10.0);
        // After 10 s the head vehicle is past the segment but still
        // simulated (coasting through the off-road margin)...
        assert!(sim.all_vehicles().iter().all(|v| !v.exited));
        assert!(sim.active_vehicles().any(|v| v.s > 4_000.0));
        // ...and after 30 s it has cleared the margin and is gone.
        run(&mut sim, 20.0);
        assert!(sim.all_vehicles().iter().any(|v| v.exited));
    }

    #[test]
    fn spawn_rate_approximates_paper_volume() {
        // ≈1 vehicle/second at 30 m spacing and 30 m/s (the paper's
        // 94 951 AADT ≈ 1.1 vehicles/second).
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        let before = sim.all_vehicles().len();
        run(&mut sim, 100.0);
        let spawned = sim.all_vehicles().len() - before;
        assert!((85..=115).contains(&spawned), "spawned {spawned} in 100 s");
    }

    #[test]
    fn closed_gate_stops_entries() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.set_entry_open(Direction::East, false);
        let before = sim.all_vehicles().len();
        run(&mut sim, 30.0);
        assert_eq!(sim.all_vehicles().len(), before);
        assert!(!sim.entry_open(Direction::East));
    }

    #[test]
    fn hazard_queues_traffic() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 3_600.0);
        run(&mut sim, 120.0);
        // Vehicles queue behind the hazard: none straddle it, and the
        // closest queued vehicle is (nearly) stopped short of it.
        let max_s = sim.active_vehicles().map(|v| v.s).fold(f64::NEG_INFINITY, f64::max);
        assert!(max_s < 3_600.0, "vehicle passed the hazard: {max_s}");
        let queue_head =
            sim.active_vehicles().max_by(|a, b| a.s.partial_cmp(&b.s).unwrap()).unwrap();
        assert!(queue_head.v < 1.0, "queue head still moving at {} m/s", queue_head.v);
        // With the gate open the jam grows past the steady-state count.
        assert!(sim.count_on_road() > 140, "count = {}", sim.count_on_road());
        assert_eq!(sim.collisions(), 0);
    }

    #[test]
    fn hazard_lets_downstream_vehicles_exit() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 3_600.0);
        let downstream: Vec<VehicleId> =
            sim.active_vehicles().filter(|v| v.s > 3_600.0).map(|v| v.id).collect();
        assert!(!downstream.is_empty());
        // Worst case: (4 600 − 3 610) / 30 ≈ 33 s to clear the margin.
        run(&mut sim, 50.0);
        for id in downstream {
            assert!(sim.vehicle(id).exited, "{id} should have exited");
        }
    }

    #[test]
    fn clear_hazards_releases_queue() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 1_000.0);
        run(&mut sim, 60.0);
        sim.clear_hazards(Direction::East);
        run(&mut sim, 30.0);
        let max_s = sim.active_vehicles().map(|v| v.s).fold(f64::NEG_INFINITY, f64::max);
        assert!(max_s > 1_000.0, "queue did not release: {max_s}");
    }

    #[test]
    fn wider_spacing_lowers_density() {
        let sparse = TrafficSim::new(RoadConfig::paper_default().with_spacing(300.0));
        assert_eq!(sparse.count_on_road(), 13); // 4000/300
    }

    #[test]
    #[should_panic(expected = "outside road")]
    fn hazard_outside_road_panics() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 4_500.0);
    }

    #[test]
    #[should_panic(expected = "invalid timestep")]
    fn step_rejects_bad_dt() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.step(0.0);
    }

    #[test]
    fn determinism_same_config_same_trajectory() {
        let mut a = TrafficSim::new(RoadConfig::paper_default());
        let mut b = TrafficSim::new(RoadConfig::paper_default());
        run(&mut a, 20.0);
        run(&mut b, 20.0);
        assert_eq!(a.all_vehicles().len(), b.all_vehicles().len());
        for (va, vb) in a.all_vehicles().iter().zip(b.all_vehicles()) {
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn debug_output_mentions_counts() {
        let sim = TrafficSim::new(RoadConfig::paper_default());
        let s = format!("{sim:?}");
        assert!(s.contains("on_road"), "{s}");
    }

    #[test]
    fn positions_track_longitudinal_motion() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        let id = sim.active_vehicles().next().unwrap().id;
        let before = sim.position(id);
        run(&mut sim, 1.0);
        let v = sim.vehicle(id);
        if !v.exited {
            let after = sim.position(id);
            assert!(after.x > before.x, "eastbound vehicle must move east");
        }
    }
}
