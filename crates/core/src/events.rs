//! The uniform event vocabulary solutions emit and checkers consume.
//!
//! Every problem solution, regardless of mechanism, narrates its execution
//! into the simulator trace with three phases per operation instance:
//!
//! * `req:<op>` — the process is about to ask the mechanism for access;
//! * `enter:<op>` — access was granted, the operation body is starting;
//! * `exit:<op>` — the operation body finished.
//!
//! Parameters (track numbers, deadlines, buffer values) ride along as the
//! event's `i64` parameters. [`extract`] parses a [`Trace`] back into
//! typed [`ProblemEvent`]s, which the checkers in [`crate::checks`]
//! validate against the problem's constraints. Keeping the vocabulary in
//! one place is what lets a single checker validate all four mechanisms'
//! solutions to the same problem.

use bloom_sim::{Ctx, Pid, Time, Trace};

/// The lifecycle phase of an operation instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The process is about to request access.
    Request,
    /// Access granted; the body is starting.
    Enter,
    /// The body completed.
    Exit,
}

impl Phase {
    fn prefix(self) -> &'static str {
        match self {
            Phase::Request => "req",
            Phase::Enter => "enter",
            Phase::Exit => "exit",
        }
    }
}

/// One parsed problem event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProblemEvent {
    /// Virtual time of the event.
    pub time: Time,
    /// Trace sequence number: a strict total order.
    pub seq: u64,
    /// The process performing the operation.
    pub pid: Pid,
    /// Operation name (e.g. `read`).
    pub op: String,
    /// Request/Enter/Exit.
    pub phase: Phase,
    /// Operation parameters (track number, deadline, value, …).
    pub params: Vec<i64>,
}

/// Emits the given phase for `op`.
pub fn emit_phase(ctx: &Ctx, phase: Phase, op: &str, params: &[i64]) {
    ctx.emit(&format!("{}:{op}", phase.prefix()), params);
}

/// Emits the `Request` phase for `op`.
pub fn request(ctx: &Ctx, op: &str, params: &[i64]) {
    emit_phase(ctx, Phase::Request, op, params);
}

/// Emits the `Enter` phase for `op`.
pub fn enter(ctx: &Ctx, op: &str, params: &[i64]) {
    emit_phase(ctx, Phase::Enter, op, params);
}

/// Emits the `Enter` phase for `op` on behalf of `target` — used by
/// mechanisms whose releaser grants access to a still-parked process, so
/// the trace records the grant at decision time (see
/// [`Ctx::emit_for`]).
pub fn enter_for(ctx: &Ctx, target: Pid, op: &str, params: &[i64]) {
    ctx.emit_for(target, &format!("{}:{op}", Phase::Enter.prefix()), params);
}

/// Emits the `Exit` phase for `op`.
pub fn exit(ctx: &Ctx, op: &str, params: &[i64]) {
    emit_phase(ctx, Phase::Exit, op, params);
}

/// Emits the `Exit` phase for `op` on behalf of `target` (for mechanisms
/// where a server performs the operation for a client).
pub fn exit_for(ctx: &Ctx, target: Pid, op: &str, params: &[i64]) {
    ctx.emit_for(target, &format!("{}:{op}", Phase::Exit.prefix()), params);
}

/// Parses the problem events out of a trace, in trace order. Non-problem
/// user events and scheduler events are ignored.
pub fn extract(trace: &Trace) -> Vec<ProblemEvent> {
    trace
        .user_events()
        .filter_map(|(event, label, params)| {
            let (prefix, op) = label.split_once(':')?;
            let phase = match prefix {
                "req" => Phase::Request,
                "enter" => Phase::Enter,
                "exit" => Phase::Exit,
                _ => return None,
            };
            Some(ProblemEvent {
                time: event.time,
                seq: event.seq,
                pid: event.pid,
                op: op.to_string(),
                phase,
                params: params.to_vec(),
            })
        })
        .collect()
}

/// Pairs each `Request` with its matching `Enter` and `Exit`.
///
/// A process performs the instances of a given operation sequentially, so
/// within one `(pid, op)` stream the k-th request matches the k-th enter
/// and k-th exit. Instances missing an enter or exit (e.g. still blocked
/// at the end of the run) have `None` in those positions.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The request event index into the event slice.
    pub request: usize,
    /// The matching enter event index, if any.
    pub enter: Option<usize>,
    /// The matching exit event index, if any.
    pub exit: Option<usize>,
}

/// Matches request/enter/exit triples (see [`Instance`]).
pub fn instances(events: &[ProblemEvent]) -> Vec<Instance> {
    use std::collections::BTreeMap;
    let mut out: Vec<Instance> = Vec::new();
    // Per (pid, op): indices of instances awaiting enter / exit.
    let mut awaiting_enter: BTreeMap<(Pid, &str), Vec<usize>> = BTreeMap::new();
    let mut awaiting_exit: BTreeMap<(Pid, &str), Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let key = (e.pid, e.op.as_str());
        match e.phase {
            Phase::Request => {
                out.push(Instance {
                    request: i,
                    enter: None,
                    exit: None,
                });
                awaiting_enter.entry(key).or_default().push(out.len() - 1);
            }
            Phase::Enter => {
                let queue = awaiting_enter.entry(key).or_default();
                assert!(
                    !queue.is_empty(),
                    "enter without request for {} by {} (seq {})",
                    e.op,
                    e.pid,
                    e.seq
                );
                let inst = queue.remove(0);
                out[inst].enter = Some(i);
                awaiting_exit.entry(key).or_default().push(inst);
            }
            Phase::Exit => {
                let queue = awaiting_exit.entry(key).or_default();
                assert!(
                    !queue.is_empty(),
                    "exit without enter for {} by {} (seq {})",
                    e.op,
                    e.pid,
                    e.seq
                );
                let inst = queue.remove(0);
                out[inst].exit = Some(i);
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A tiny builder for synthetic event streams used by checker tests.

    use super::*;

    pub(crate) struct EventScript {
        events: Vec<ProblemEvent>,
    }

    impl EventScript {
        pub(crate) fn new() -> Self {
            EventScript { events: Vec::new() }
        }

        pub(crate) fn ev(mut self, pid: u32, phase: Phase, op: &str, params: &[i64]) -> Self {
            let seq = self.events.len() as u64;
            self.events.push(ProblemEvent {
                time: Time(seq),
                seq,
                pid: Pid(pid),
                op: op.to_string(),
                phase,
                params: params.to_vec(),
            });
            self
        }

        /// Shorthand: request immediately followed by enter.
        pub(crate) fn re(self, pid: u32, op: &str) -> Self {
            self.ev(pid, Phase::Request, op, &[])
                .ev(pid, Phase::Enter, op, &[])
        }

        pub(crate) fn build(self) -> Vec<ProblemEvent> {
            self.events
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::Sim;

    #[test]
    fn emit_and_extract_round_trip() {
        let mut sim = Sim::new();
        sim.spawn("p", |ctx| {
            request(ctx, "read", &[]);
            enter(ctx, "read", &[7]);
            exit(ctx, "read", &[7]);
        });
        let report = sim.run().unwrap();
        let events = extract(&report.trace);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, Phase::Request);
        assert_eq!(events[1].phase, Phase::Enter);
        assert_eq!(events[1].params, vec![7]);
        assert_eq!(events[2].phase, Phase::Exit);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn extract_ignores_foreign_events() {
        let mut sim = Sim::new();
        sim.spawn("p", |ctx| {
            ctx.emit("debug-note", &[1]);
            request(ctx, "op", &[]);
            ctx.emit("weird:unknown", &[]);
        });
        let report = sim.run().unwrap();
        let events = extract(&report.trace);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, "op");
    }

    #[test]
    fn instances_match_in_fifo_order_per_pid() {
        use test_support::EventScript;
        let events = EventScript::new()
            .ev(0, Phase::Request, "a", &[])
            .ev(0, Phase::Request, "a", &[]) // same pid, second instance
            .ev(0, Phase::Enter, "a", &[])
            .ev(0, Phase::Exit, "a", &[])
            .ev(0, Phase::Enter, "a", &[])
            .build();
        let inst = instances(&events);
        assert_eq!(inst.len(), 2);
        assert_eq!(inst[0].enter, Some(2));
        assert_eq!(inst[0].exit, Some(3));
        assert_eq!(inst[1].enter, Some(4));
        assert_eq!(inst[1].exit, None, "second instance still running");
    }

    #[test]
    #[should_panic(expected = "enter without request")]
    fn orphan_enter_is_rejected() {
        use test_support::EventScript;
        let events = EventScript::new().ev(0, Phase::Enter, "a", &[]).build();
        instances(&events);
    }
}
