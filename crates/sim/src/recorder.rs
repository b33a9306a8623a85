//! The sampled recorder behind the audit and topology observers, and
//! the artifact both serialize to.
//!
//! A [`Recorder`] collects one timeline entry per sampling interval
//! plus free-form run metadata. A world holds an
//! `Option<Rc<RefCell<Recorder<_>>>>` per observer: detached, the
//! per-step check is one branch and nothing is ever sampled. An
//! [`Artifact`] is the recorder's serializable snapshot, written as
//! `{"meta":{…},"interval_us":…,"<list>":[…]}` with one entry per line.

use crate::telemetry::json;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A timeline entry stamped with its sampling time, with its JSON form.
pub trait Sample: Clone {
    /// The artifact key holding the timeline (`"checkpoints"`, …).
    const LIST: &'static str;

    /// Simulation time the entry was sampled at.
    fn at(&self) -> SimTime;

    /// Appends the entry as one JSON object.
    fn write_json(&self, out: &mut String);

    /// Parses an entry written by [`Sample::write_json`].
    ///
    /// # Errors
    ///
    /// Fails with a description of the first malformed or inconsistent
    /// construct.
    fn parse_json(value: &json::Value) -> Result<Self, String>;
}

/// Collects a timeline at a fixed sim-time interval, plus free-form run
/// metadata (seed, scenario, attack setup…).
#[derive(Debug)]
pub struct Recorder<T> {
    interval: SimDuration,
    next_due: SimTime,
    meta: BTreeMap<String, String>,
    entries: Vec<T>,
}

impl<T: Sample> Recorder<T> {
    /// Creates a recorder sampling every `interval` of simulation time
    /// (the first entry is due immediately).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "sampling interval must be positive");
        Recorder { interval, next_due: SimTime::ZERO, meta: BTreeMap::new(), entries: Vec::new() }
    }

    /// Attaches one metadata key (seed, scenario label, …).
    ///
    /// # Panics
    ///
    /// Panics if the key or value contains a quote or backslash (the
    /// artifact encoding is escape-free).
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        json::insert_meta(&mut self.meta, key, value.into());
    }

    /// Whether an entry is due at `now`.
    #[must_use]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Appends an entry and advances the next due time.
    pub fn record(&mut self, entry: T) {
        self.next_due = entry.at() + self.interval;
        self.entries.push(entry);
    }

    /// The recorded timeline.
    #[must_use]
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Snapshots the recorder into a serializable artifact.
    #[must_use]
    pub fn to_artifact(&self) -> Artifact<T> {
        Artifact { meta: self.meta.clone(), interval: self.interval, entries: self.entries.clone() }
    }
}

/// A serialized timeline: run metadata, sampling interval and the
/// entries. Two artifacts from identically-seeded runs are
/// byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact<T> {
    /// Free-form run metadata (seed, scenario, attacked, …).
    pub meta: BTreeMap<String, String>,
    /// The sampling interval the timeline was recorded at.
    pub interval: SimDuration,
    /// The timeline, in sampling order.
    pub entries: Vec<T>,
}

impl<T: Sample> Artifact<T> {
    /// Renders the artifact as JSON, one entry per line so the timeline
    /// greps well. Deterministic: metadata is sorted.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"meta\":");
        json::write_meta(&mut out, &self.meta);
        let _ = write!(out, ",\"interval_us\":{},\"{}\":[", self.interval.as_micros(), T::LIST);
        for (i, entry) in self.entries.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            entry.write_json(&mut out);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses an artifact produced by [`Artifact::to_json`]; each entry
    /// goes through [`Sample::parse_json`], which rejects tampered ones.
    ///
    /// # Errors
    ///
    /// Fails with a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let mut meta = BTreeMap::new();
        let mut interval = None;
        let mut entries = Vec::new();
        for (key, value) in root.as_object("top level")? {
            match key.as_str() {
                "meta" => meta = json::parse_meta(value)?,
                "interval_us" => {
                    interval = Some(SimDuration::from_micros(value.as_u64("interval_us")?));
                }
                k if k == T::LIST => {
                    for entry in value.as_array(T::LIST)? {
                        entries.push(T::parse_json(entry)?);
                    }
                }
                other => return Err(format!("unknown top-level key {other:?}")),
            }
        }
        let interval = interval.ok_or("missing interval_us")?;
        Ok(Artifact { meta, interval, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Tick(SimTime);

    impl Sample for Tick {
        const LIST: &'static str = "ticks";

        fn at(&self) -> SimTime {
            self.0
        }

        fn write_json(&self, out: &mut String) {
            out.push_str(&self.0.as_micros().to_string());
        }

        fn parse_json(value: &json::Value) -> Result<Self, String> {
            Ok(Tick(SimTime::from_micros(value.as_u64("tick")?)))
        }
    }

    #[test]
    fn recorder_cadence_and_due() {
        let mut rec = Recorder::new(SimDuration::from_secs(1));
        assert!(rec.due(SimTime::ZERO));
        rec.record(Tick(SimTime::ZERO));
        assert!(!rec.due(SimTime::from_millis(900)));
        assert!(rec.due(SimTime::from_secs(1)));
        rec.record(Tick(SimTime::from_secs(1)));
        assert_eq!(rec.entries().len(), 2);
    }

    #[test]
    fn artifact_round_trips_and_rejects_malformed_envelopes() {
        let mut rec = Recorder::new(SimDuration::from_secs(1));
        rec.set_meta("seed", "42");
        rec.record(Tick(SimTime::from_micros(7)));
        rec.record(Tick(SimTime::from_secs(1)));
        let text = rec.to_artifact().to_json();
        assert_eq!(
            text,
            "{\"meta\":{\"seed\":\"42\"},\"interval_us\":1000000,\"ticks\":[\n7,\n1000000\n]}\n"
        );
        assert_eq!(Artifact::from_json(&text), Ok(rec.to_artifact()));
        for bad in [
            r#"{"meta":{},"ticks":[]}"#,
            r#"{"meta":{},"interval_us":1,"snapshots":[]}"#,
            r#"{"meta":{"seed":42},"interval_us":1,"ticks":[]}"#,
            r#"{"meta":{},"interval_us":-1,"ticks":[]}"#,
        ] {
            assert!(Artifact::<Tick>::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    #[should_panic(expected = "must not contain quotes or backslashes")]
    fn metadata_rejects_characters_the_encoder_cannot_escape() {
        Recorder::<Tick>::new(SimDuration::from_secs(1)).set_meta("scenario", "a\"b");
    }
}
