//! Self time per layer from nested span sums.
//!
//! The world's telemetry times five spans, nested as
//! dispatch ⊃ {traffic step, broadcast ⊃ receiver scan, handle_frame}.
//! Broadcasts also run outside dispatch, inside `originate_from`. A
//! layer's self time is its span sum minus the spans it encloses; what
//! `run_until` and `originate_from` spend outside every span is the
//! kernel's (event queue and loop).

/// Span sums of one or more worlds, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spans {
    /// The runner's clock around every `run_until`/`run_to_end` call.
    pub run_until_ns: u64,
    /// The runner's clock around every `originate_from` call.
    pub originate_ns: u64,
    /// Broadcast span time recorded inside `originate_from` calls.
    pub broadcast_in_originate_ns: u64,
    /// The runner's clock around every simulated second: the traced total.
    pub total_ns: u64,
    /// `world_dispatch_ns` sum.
    pub dispatch_ns: u64,
    /// `traffic_step_ns` sum.
    pub traffic_ns: u64,
    /// `radio_broadcast_ns` sum.
    pub broadcast_ns: u64,
    /// `radio_receiver_scan_ns` sum.
    pub scan_ns: u64,
    /// `router_handle_frame_ns` sum.
    pub handle_frame_ns: u64,
}

impl Spans {
    /// Adds another world's sums to these.
    pub fn add(&mut self, o: &Spans) {
        self.run_until_ns += o.run_until_ns;
        self.originate_ns += o.originate_ns;
        self.broadcast_in_originate_ns += o.broadcast_in_originate_ns;
        self.total_ns += o.total_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.traffic_ns += o.traffic_ns;
        self.broadcast_ns += o.broadcast_ns;
        self.scan_ns += o.scan_ns;
        self.handle_frame_ns += o.handle_frame_ns;
    }

    /// Splits the spans into self times.
    ///
    /// # Errors
    ///
    /// A negative self time: the spans are not nested as assumed.
    pub fn self_times(&self) -> Result<SelfTimes, String> {
        let sub = |what: &str, outer: u64, inner: u64| {
            outer.checked_sub(inner).ok_or_else(|| {
                format!("{what}: enclosed spans ({inner} ns) exceed the span ({outer} ns)")
            })
        };
        let bcast_in_dispatch =
            sub("broadcast split", self.broadcast_ns, self.broadcast_in_originate_ns)?;
        let sim_loop = sub("run_until", self.run_until_ns, self.dispatch_ns)?;
        let sim_originate =
            sub("originate_from", self.originate_ns, self.broadcast_in_originate_ns)?;
        Ok(SelfTimes {
            sim: sim_loop + sim_originate,
            traffic: self.traffic_ns,
            scan: self.scan_ns,
            transmit: sub("broadcast", self.broadcast_ns, self.scan_ns)?,
            router: self.handle_frame_ns,
            dispatch: sub(
                "dispatch",
                self.dispatch_ns,
                self.traffic_ns + bcast_in_dispatch + self.handle_frame_ns,
            )?,
        })
    }
}

/// Time spent in each layer excluding the layers it calls, nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfTimes {
    /// Event queue and loop: `run_until` and `originate_from` outside
    /// every span.
    pub sim: u64,
    /// Traffic stepping.
    pub traffic: u64,
    /// Receiver query of the radio medium.
    pub scan: u64,
    /// Broadcast minus its scan: byte count, frame clones, scheduling.
    pub transmit: u64,
    /// Router frame handling (verify, LocT, GF, CBF).
    pub router: u64,
    /// Dispatch minus its children: event handling outside them, timers,
    /// originations' router work, observers.
    pub dispatch: u64,
}

impl SelfTimes {
    /// The sum over all layers.
    pub fn sum(&self) -> u64 {
        self.sim + self.traffic + self.scan + self.transmit + self.router + self.dispatch
    }

    /// How far the layers' sum is from `total`, as a share of `total`.
    pub fn additivity_error(&self, total: u64) -> f64 {
        (self.sum() as f64 - total as f64).abs() / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Spans {
        Spans {
            run_until_ns: 1_000,
            originate_ns: 60,
            broadcast_in_originate_ns: 40,
            total_ns: 1_100,
            dispatch_ns: 900,
            traffic_ns: 100,
            broadcast_ns: 340,
            scan_ns: 90,
            handle_frame_ns: 400,
        }
    }

    #[test]
    fn self_times_subtract_enclosed_spans() {
        let st = sample().self_times().expect("nested");
        assert_eq!(st.traffic, 100);
        assert_eq!(st.scan, 90);
        assert_eq!(st.transmit, 340 - 90);
        assert_eq!(st.router, 400);
        // Dispatch encloses traffic, the 300 ns of broadcasts outside
        // originations, and handle_frame.
        assert_eq!(st.dispatch, 900 - 100 - 300 - 400);
        // The kernel keeps run_until minus dispatch plus originate minus
        // its broadcasts.
        assert_eq!(st.sim, (1_000 - 900) + (60 - 40));
        // The layers partition run_until plus originate exactly.
        assert_eq!(st.sum(), 1_000 + 60);
        let err = st.additivity_error(1_100);
        assert!((err - 40.0 / 1_100.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_spans_are_rejected() {
        let mut s = sample();
        s.handle_frame_ns = 800;
        assert!(s.self_times().unwrap_err().contains("dispatch"));
        let mut s = sample();
        s.scan_ns = 400;
        assert!(s.self_times().is_err());
    }

    #[test]
    fn sums_add_fieldwise() {
        let mut a = sample();
        a.add(&sample());
        assert_eq!(a.run_until_ns, 2_000);
        assert_eq!(a.handle_frame_ns, 800);
        assert_eq!(a.self_times().expect("nested").sum(), 2 * 1_060);
    }
}
