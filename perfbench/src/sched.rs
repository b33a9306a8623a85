//! On-CPU time and run-queue wait of the calling thread, from
//! `/proc/thread-self/schedstat`, and the machine's steal time. A noisy
//! neighbour shows as on-CPU time below wall time, as run-queue wait, or
//! as steal.

/// Scheduler totals of one thread at one instant, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    on_cpu_ns: u64,
    runq_wait_ns: u64,
}

impl Sched {
    /// `(on-CPU, run-queue wait)` accrued since `earlier`.
    pub fn since(self, earlier: Sched) -> (u64, u64) {
        (
            self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
        )
    }
}

/// The calling thread's totals; zero where the kernel does not expose
/// them.
pub fn thread_now() -> Sched {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse(&s))
        .unwrap_or_default()
}

/// Seconds the hypervisor ran other guests while this machine's CPUs
/// had work (`steal` in `/proc/stat`), summed over CPUs; zero where the
/// kernel does not expose it.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

fn parse(text: &str) -> Option<Sched> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some(Sched { on_cpu_ns: fields.next()?.ok()?, runq_wait_ns: fields.next()?.ok()? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_first_two_fields() {
        let s = parse("369307504 265415 23\n").expect("valid");
        assert_eq!(s.since(Sched::default()), (369_307_504, 265_415));
        assert!(parse("garbage").is_none());
    }
}
