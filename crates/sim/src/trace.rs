//! The totally ordered event log of a simulation run.
//!
//! Every scheduling action and every user-emitted event is appended to a
//! single [`Trace`]. Higher-level crates (checkers, the evaluation harness)
//! consume the trace rather than instrumenting mechanisms directly, so one
//! log is the single source of truth for "what happened, in what order".

use crate::types::{Pid, Time};
use std::fmt;

/// What happened at one point in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A process was created (by the builder or by a running process).
    Spawned { name: String, daemon: bool },
    /// The scheduler dispatched the process.
    Scheduled,
    /// The process voluntarily yielded the CPU.
    Yielded,
    /// The process parked itself on a wait queue.
    Blocked { reason: String },
    /// A running process made this (parked) process runnable again.
    Unparked { by: Pid },
    /// The process began sleeping until the given virtual time.
    Slept { until: Time },
    /// The process's sleep timer fired and it became runnable.
    TimerFired,
    /// The process closure returned.
    Finished,
    /// A fault-plan kill-point fired: the process unwinds and never
    /// resumes. Poison events emitted by its drop guards follow this event.
    Killed,
    /// Deadlock recovery aborted the process (the chosen victim): it
    /// unwinds and never resumes, classified as cancelled rather than
    /// crashed. Poison events emitted by its drop guards follow this event.
    Aborted,
    /// The kernel starvation watchdog flagged the process: it had been
    /// waiting `age` quanta — longer than the configured bound — while
    /// other processes kept making progress.
    StarvationFlagged { age: u64 },
    /// A fault-plan spurious wake made the process runnable with no
    /// matching unpark ([`crate::Ctx::park`] absorbs it by re-parking).
    SpuriousWake,
    /// A fault plan converted an unpark of this process into a timed sleep
    /// ending at the given virtual time.
    DelayedWake { until: Time },
    /// A data decision point fired: the process drew `value` from the
    /// domain registered under `label` via [`crate::Ctx::choose_value`].
    ChoseValue { label: String, value: i64 },
    /// An application-level event emitted via [`crate::Ctx::emit`].
    User { label: String, params: Vec<i64> },
}

/// One entry in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time at which the event occurred.
    pub time: Time,
    /// Position in the trace; a strict total order over all events.
    pub seq: u64,
    /// The process the event concerns.
    pub pid: Pid,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} #{}] {}: ", self.time, self.seq, self.pid)?;
        match &self.kind {
            EventKind::Spawned { name, daemon } => {
                write!(
                    f,
                    "spawned \"{name}\"{}",
                    if *daemon { " (daemon)" } else { "" }
                )
            }
            EventKind::Scheduled => write!(f, "scheduled"),
            EventKind::Yielded => write!(f, "yielded"),
            EventKind::Blocked { reason } => write!(f, "blocked on {reason}"),
            EventKind::Unparked { by } => write!(f, "unparked by {by}"),
            EventKind::Slept { until } => write!(f, "sleeping until {until}"),
            EventKind::TimerFired => write!(f, "timer fired"),
            EventKind::Finished => write!(f, "finished"),
            EventKind::Killed => write!(f, "killed (fault injection)"),
            EventKind::Aborted => write!(f, "aborted (deadlock recovery)"),
            EventKind::StarvationFlagged { age } => {
                write!(f, "starvation watchdog flagged (waiting {age} quanta)")
            }
            EventKind::SpuriousWake => write!(f, "spurious wake (fault injection)"),
            EventKind::DelayedWake { until } => {
                write!(f, "wake delayed until {until} (fault injection)")
            }
            EventKind::ChoseValue { label, value } => {
                write!(f, "chose {label} = {value}")
            }
            EventKind::User { label, params } => write!(f, "{label} {params:?}"),
        }
    }
}

/// What a [`Decision`]'s outcome decides (see DESIGN.md §2.15).
///
/// Decision vectors are a single interleaved sequence; the kind tag is
/// what lets the prune machinery treat the two spaces differently
/// (scheduling choices race-reverse, data choices partition by path
/// constraints) while replay, journaling, and shrinking stay oblivious.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecisionKind {
    /// A scheduler pick: which of the runnable processes to dispatch.
    Sched,
    /// A data pick: which value of a [`crate::Ctx::choose_value`] domain
    /// the run observed.
    Data,
}

/// A decision point: the outcome chose `chosen` out of `arity`
/// alternatives. Only points with `arity > 1` are recorded; they are
/// exactly the coordinates [`crate::ExploreConfig::run`] enumerates.
///
/// A `Sched` decision picks a runnable process at a contested dispatch; a
/// `Data` decision picks a value from a [`crate::Ctx::choose_value`]
/// domain mid-quantum. Both live in the same vector, in the order they
/// were made, and replay consumes one script entry for either kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// How many alternatives there were (runnable processes, or values in
    /// the chosen domain).
    pub arity: u32,
    /// Index (into the ready list in enqueue order, or into the value
    /// domain in ascending order) that was taken.
    pub chosen: u32,
    /// Whether the quantum this decision dispatched was *observably pure*:
    /// it performed no kernel-visible operation (no emit, unpark, ticket,
    /// clock read, spawn, …), no mechanism marked synchronization state as
    /// touched via [`crate::Ctx::note_sync`], and the process stopped with a
    /// plain yield (or finished, in a daemon-free simulation) — and the run
    /// as a whole stayed prune-safe (no timers, no faults, no starvation
    /// watchdog). A pure quantum is a stutter step: scheduling it earlier
    /// or later commutes with every other process, which is what licenses
    /// the sibling prune of [`crate::PruneMode::Granular`]. Replay
    /// ignores this field. Data decisions are never pure: observing a
    /// value is the point of making one.
    pub pure: bool,
    /// Whether this is a scheduler pick or a data pick.
    pub kind: DecisionKind,
}

impl Decision {
    /// A scheduler decision (contested dispatch), initially impure.
    pub fn sched(arity: u32, chosen: u32) -> Self {
        Decision {
            arity,
            chosen,
            pure: false,
            kind: DecisionKind::Sched,
        }
    }

    /// A data decision ([`crate::Ctx::choose_value`]), always impure.
    pub fn data(arity: u32, chosen: u32) -> Self {
        Decision {
            arity,
            chosen,
            pure: false,
            kind: DecisionKind::Data,
        }
    }

    /// Whether this is a scheduler decision.
    pub fn is_sched(&self) -> bool {
        self.kind == DecisionKind::Sched
    }

    /// Whether this is a data decision.
    pub fn is_data(&self) -> bool {
        self.kind == DecisionKind::Data
    }
}

/// The event log of one run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace, preallocated for a typical short run —
    /// exploration executes hundreds of thousands of small runs, so the
    /// first few doublings of the event vector are worth skipping.
    pub fn new() -> Self {
        Trace {
            events: Vec::with_capacity(64),
        }
    }

    pub(crate) fn push(&mut self, time: Time, pid: Pid, kind: EventKind) {
        let seq = self.events.len() as u64;
        self.events.push(Event {
            time,
            seq,
            pid,
            kind,
        });
    }

    /// Appends an event, assigning the next dense `seq`.
    ///
    /// This is the append path for *external backends*: the real-thread
    /// runtime (`bloom-rt`) builds a [`Trace`] event by event so the
    /// checkers in `bloom-core` — which consume traces, not kernels — run
    /// on real executions unchanged. Inside the simulator the kernel is
    /// the only writer; external callers own their trace outright and
    /// serialize appends however they synchronize their log.
    pub fn record(&mut self, time: Time, pid: Pid, kind: EventKind) {
        self.push(time, pid, kind);
    }

    /// All events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over user events as `(event, label, params)` triples.
    pub fn user_events(&self) -> impl Iterator<Item = (&Event, &str, &[i64])> {
        self.events.iter().filter_map(|e| match &e.kind {
            EventKind::User { label, params } => Some((e, label.as_str(), params.as_slice())),
            _ => None,
        })
    }

    /// All events concerning one process.
    pub fn events_for(&self, pid: Pid) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.pid == pid)
    }

    /// The first user event with the given label, if any.
    pub fn first_user(&self, label: &str) -> Option<&Event> {
        self.user_events()
            .find(|(_, l, _)| *l == label)
            .map(|(e, _, _)| e)
    }

    /// Counts user events with the given label.
    pub fn count_user(&self, label: &str) -> usize {
        self.user_events().filter(|(_, l, _)| *l == label).count()
    }

    /// Renders the full trace, one event per line (diagnostics).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(Time(0), Pid(0), EventKind::Scheduled);
        t.push(
            Time(1),
            Pid(0),
            EventKind::User {
                label: "enter".into(),
                params: vec![42],
            },
        );
        t.push(
            Time(2),
            Pid(1),
            EventKind::User {
                label: "enter".into(),
                params: vec![7],
            },
        );
        t.push(Time(3), Pid(0), EventKind::Finished);
        t
    }

    #[test]
    fn seq_is_dense_and_ordered() {
        let t = sample();
        for (i, e) in t.events().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn user_event_queries() {
        let t = sample();
        assert_eq!(t.count_user("enter"), 2);
        assert_eq!(t.first_user("enter").unwrap().pid, Pid(0));
        assert!(t.first_user("missing").is_none());
    }

    #[test]
    fn events_for_filters_by_pid() {
        let t = sample();
        assert_eq!(t.events_for(Pid(1)).count(), 1);
        assert_eq!(t.events_for(Pid(0)).count(), 3);
    }

    #[test]
    fn render_contains_labels() {
        let t = sample();
        let s = t.render();
        assert!(s.contains("enter [42]"));
        assert!(s.contains("P1"));
    }
}
