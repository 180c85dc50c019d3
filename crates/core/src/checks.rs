//! Constraint checkers over problem event streams.
//!
//! Each checker validates one kind of constraint from the paper's taxonomy
//! against a trace (as parsed by [`crate::events::extract`]). A checker
//! returns the list of [`Violation`]s it found — empty means the trace
//! satisfies the constraint. Because every mechanism's solution to a
//! problem emits the same event vocabulary, one checker validates all of
//! them, which is what makes cross-mechanism evaluation honest.

use crate::events::{instances, Phase, ProblemEvent};
use std::collections::BTreeMap;
use std::fmt;

/// One detected constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Trace sequence number at which the violation became evident.
    pub at_seq: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[seq {}] {}", self.at_seq, self.message)
    }
}

/// Panics with a readable report if any violations were found. For tests.
pub fn expect_clean(violations: &[Violation], what: &str) {
    assert!(
        violations.is_empty(),
        "{what}: {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}

/// Checks an exclusion constraint given as a conflict relation: for every
/// pair `(a, b)` in `conflicts`, an execution of `a` may not overlap an
/// execution of `b`. Use `(x, x)` for self-exclusive operations.
pub fn check_exclusion(events: &[ProblemEvent], conflicts: &[(&str, &str)]) -> Vec<Violation> {
    let mut active: BTreeMap<&str, u32> = BTreeMap::new();
    let mut violations = Vec::new();
    let conflicts_with = |op: &str| -> Vec<&str> {
        conflicts
            .iter()
            .flat_map(|&(a, b)| {
                let mut v = Vec::new();
                if a == op {
                    v.push(b);
                }
                if b == op && a != op {
                    v.push(a);
                }
                v
            })
            .collect()
    };
    for e in events {
        match e.phase {
            Phase::Enter => {
                for other in conflicts_with(&e.op) {
                    let count = active.get(other).copied().unwrap_or(0);
                    if count > 0 {
                        violations.push(Violation {
                            at_seq: e.seq,
                            message: format!(
                                "{} entered {} while {} execution(s) of {} were active",
                                e.pid, e.op, count, other
                            ),
                        });
                    }
                }
                *active.entry(op_key(events, e)).or_insert(0) += 1;
            }
            Phase::Exit => {
                let count = active.entry(op_key(events, e)).or_insert(0);
                if *count == 0 {
                    violations.push(Violation {
                        at_seq: e.seq,
                        message: format!("{} exited {} which was not active", e.pid, e.op),
                    });
                } else {
                    *count -= 1;
                }
            }
            Phase::Request => {}
        }
    }
    violations
}

// Interns op names against the event slice to keep the `active` map borrow
// simple (all names outlive the scan).
fn op_key<'a>(_events: &'a [ProblemEvent], e: &'a ProblemEvent) -> &'a str {
    e.op.as_str()
}

/// Checks that at most `max` executions of `op` are ever concurrent.
pub fn check_max_concurrency(events: &[ProblemEvent], op: &str, max: u32) -> Vec<Violation> {
    let mut active = 0u32;
    let mut violations = Vec::new();
    for e in events.iter().filter(|e| e.op == op) {
        match e.phase {
            Phase::Enter => {
                active += 1;
                if active > max {
                    violations.push(Violation {
                        at_seq: e.seq,
                        message: format!("{active} concurrent executions of {op} (max {max})"),
                    });
                }
            }
            Phase::Exit => active = active.saturating_sub(1),
            Phase::Request => {}
        }
    }
    violations
}

/// Checks strict FCFS service: among the listed operations, enters happen
/// in exactly the order of the corresponding requests.
pub fn check_fifo(events: &[ProblemEvent], ops: &[&str]) -> Vec<Violation> {
    let relevant: Vec<&ProblemEvent> = events
        .iter()
        .filter(|e| ops.contains(&e.op.as_str()))
        .collect();
    let mut violations = Vec::new();
    // Instance matching on the filtered stream.
    let owned: Vec<ProblemEvent> = relevant.iter().map(|e| (*e).clone()).collect();
    let inst = instances(&owned);
    let mut by_request: Vec<&crate::events::Instance> = inst.iter().collect();
    by_request.sort_by_key(|i| owned[i.request].seq);
    let mut entered: Vec<(u64, u64)> = Vec::new(); // (request seq, enter seq)
    for i in &by_request {
        if let Some(enter) = i.enter {
            entered.push((owned[i.request].seq, owned[enter].seq));
        }
    }
    for w in entered.windows(2) {
        let ((req_a, ent_a), (req_b, ent_b)) = (w[0], w[1]);
        if ent_b < ent_a {
            violations.push(Violation {
                at_seq: ent_a,
                message: format!(
                    "FCFS violated: request at seq {req_b} entered (seq {ent_b}) before \
                     earlier request at seq {req_a} (entered seq {ent_a})"
                ),
            });
        }
    }
    violations
}

/// Checks a priority constraint: at a *grant decision*, a waiting
/// `preferred` request must beat a waiting `over` request.
///
/// A grant decision is made when the resource is released, i.e. at the
/// last `preferred`/`over` *exit* preceding an `over` entry. An `over`
/// entry is a violation if some `preferred` request was already pending at
/// that decision point and is still not served when `over` enters. (A
/// `preferred` request that arrives *after* the decision — during the
/// unavoidable hand-off window between the grant and the winner actually
/// starting — is not a violation: no mechanism can retract a grant.)
///
/// With `preferred = "read"`, `over = "write"` this is the
/// readers-priority condition of Courtois et al., and the checker that
/// exposes the footnote-3 anomaly in the paper's Figure-1 path-expression
/// solution: there the second writer is granted at the first writer's
/// exit although the reader had been waiting since before that exit. Swap
/// the arguments for writers priority.
pub fn check_priority_over(events: &[ProblemEvent], preferred: &str, over: &str) -> Vec<Violation> {
    let inst = instances(events);
    // Pending intervals for the preferred op: (request seq, enter seq).
    let pending: Vec<(u64, u64)> = inst
        .iter()
        .filter(|i| events[i.request].op == preferred)
        .map(|i| {
            let req = events[i.request].seq;
            let ent = i.enter.map_or(u64::MAX, |e| events[e].seq);
            (req, ent)
        })
        .collect();
    // Exit events that release the resource (decision points).
    let exits: Vec<u64> = events
        .iter()
        .filter(|e| e.phase == Phase::Exit && (e.op == preferred || e.op == over))
        .map(|e| e.seq)
        .collect();
    let mut violations = Vec::new();
    for e in events
        .iter()
        .filter(|e| e.op == over && e.phase == Phase::Enter)
    {
        // The grant decision for this entry: the last release before it.
        let Some(&decision) = exits.iter().rfind(|&&x| x < e.seq) else {
            continue; // entered an idle resource: no decision to contest
        };
        let waiting: Vec<u64> = pending
            .iter()
            .filter(|&&(req, ent)| req < decision && ent > e.seq)
            .map(|&(req, _)| req)
            .collect();
        if !waiting.is_empty() {
            violations.push(Violation {
                at_seq: e.seq,
                message: format!(
                    "{} entered {} although {} {} request(s) had been waiting since before \
                     the grant decision at seq {decision} (requested at seq {:?})",
                    e.pid,
                    over,
                    waiting.len(),
                    preferred,
                    waiting
                ),
            });
        }
    }
    violations
}

/// Checks that no `overtaking` request issued *after* a pending `waiting`
/// request enters before it.
///
/// This is the weaker, arrival-relative priority property: unlike
/// [`check_priority_over`] it permits requests already in flight when the
/// waiting request arrived to finish first. The paper's Figure-2
/// writers-priority path solution satisfies this (a reader that has passed
/// `requestread` completes), while still holding *new* readers back behind
/// a waiting writer.
pub fn check_no_later_overtake(
    events: &[ProblemEvent],
    waiting: &str,
    overtaking: &str,
) -> Vec<Violation> {
    let inst = instances(events);
    let waiting_inst: Vec<(u64, u64)> = inst
        .iter()
        .filter(|i| events[i.request].op == waiting)
        .map(|i| {
            (
                events[i.request].seq,
                i.enter.map_or(u64::MAX, |e| events[e].seq),
            )
        })
        .collect();
    let mut violations = Vec::new();
    for i in inst.iter().filter(|i| events[i.request].op == overtaking) {
        let (o_req, o_ent) = (
            events[i.request].seq,
            i.enter.map_or(u64::MAX, |e| events[e].seq),
        );
        for &(w_req, w_ent) in &waiting_inst {
            if o_req > w_req && o_ent < w_ent {
                violations.push(Violation {
                    at_seq: o_ent,
                    message: format!(
                        "{overtaking} requested at seq {o_req} entered (seq {o_ent}) ahead \
                         of {waiting} requested earlier at seq {w_req}"
                    ),
                });
            }
        }
    }
    violations
}

/// Checks that every request was eventually served (entered and exited).
pub fn check_all_served(events: &[ProblemEvent]) -> Vec<Violation> {
    let inst = instances(events);
    let mut violations = Vec::new();
    for i in &inst {
        let req = &events[i.request];
        if i.enter.is_none() {
            violations.push(Violation {
                at_seq: req.seq,
                message: format!("{} request for {} was never granted", req.pid, req.op),
            });
        } else if i.exit.is_none() {
            violations.push(Violation {
                at_seq: req.seq,
                message: format!("{} execution of {} never completed", req.pid, req.op),
            });
        }
    }
    violations
}

/// Checks bounded bypass for `op`: no request is overtaken by more than
/// `k` later-issued requests of the listed operations. `k = 0` is strict
/// FCFS for `op` relative to `ops`.
pub fn check_bounded_bypass(
    events: &[ProblemEvent],
    op: &str,
    ops: &[&str],
    k: usize,
) -> Vec<Violation> {
    let inst = instances(events);
    let mut violations = Vec::new();
    for i in inst.iter().filter(|i| events[i.request].op == op) {
        let req_seq = events[i.request].seq;
        let ent_seq = i.enter.map_or(u64::MAX, |e| events[e].seq);
        let overtakers = inst
            .iter()
            .filter(|j| ops.contains(&events[j.request].op.as_str()))
            .filter(|j| {
                let jr = events[j.request].seq;
                let je = j.enter.map_or(u64::MAX, |e| events[e].seq);
                jr > req_seq && je < ent_seq
            })
            .count();
        if overtakers > k {
            violations.push(Violation {
                at_seq: req_seq,
                message: format!(
                    "request for {op} at seq {req_seq} was bypassed {overtakers} times \
                     (bound {k})"
                ),
            });
        }
    }
    violations
}

/// Checks the one-slot-buffer constraint: `a` and `b` executions strictly
/// alternate, starting with `a`.
pub fn check_alternation(events: &[ProblemEvent], a: &str, b: &str) -> Vec<Violation> {
    let mut expect_a = true;
    let mut violations = Vec::new();
    for e in events
        .iter()
        .filter(|e| e.phase == Phase::Enter && (e.op == a || e.op == b))
    {
        let expected = if expect_a { a } else { b };
        if e.op != expected {
            violations.push(Violation {
                at_seq: e.seq,
                message: format!("expected {expected} next but {} entered {}", e.pid, e.op),
            });
            // Resynchronize on what actually happened to avoid cascades.
            expect_a = e.op == a;
        }
        expect_a = !expect_a;
    }
    violations
}

/// Checks N-slot buffer admission: at any moment the number of entered
/// deposits minus exited removes stays within `0..=capacity`, and a remove
/// enters only when a completed, unconsumed deposit exists.
pub fn check_buffer_bounds(
    events: &[ProblemEvent],
    deposit: &str,
    remove: &str,
    capacity: i64,
) -> Vec<Violation> {
    let mut dep_entered = 0i64;
    let mut dep_exited = 0i64;
    let mut rem_entered = 0i64;
    let mut rem_exited = 0i64;
    let mut violations = Vec::new();
    for e in events {
        match (e.op.as_str(), e.phase) {
            (op, Phase::Enter) if op == deposit => {
                dep_entered += 1;
                if dep_entered - rem_exited > capacity {
                    violations.push(Violation {
                        at_seq: e.seq,
                        message: format!(
                            "deposit admitted into a full buffer ({} in flight, capacity \
                             {capacity})",
                            dep_entered - rem_exited
                        ),
                    });
                }
            }
            (op, Phase::Exit) if op == deposit => dep_exited += 1,
            (op, Phase::Enter) if op == remove => {
                rem_entered += 1;
                if dep_exited - rem_entered < 0 {
                    violations.push(Violation {
                        at_seq: e.seq,
                        message: "remove admitted with no completed deposit available".to_string(),
                    });
                }
            }
            (op, Phase::Exit) if op == remove => rem_exited += 1,
            _ => {}
        }
    }
    violations
}

/// Checks elevator (SCAN) service order for `op`, whose first parameter is
/// the requested track.
///
/// The abstract policy every solution must realize: among requests pending
/// at the moment of service, continue in the current direction (tracks
/// `>= head` when sweeping up, `<= head` when sweeping down), nearest
/// first; when no pending request lies in the current direction, reverse.
/// Ties (equal track) are served in arrival order, which the track-only
/// check accepts automatically.
pub fn check_elevator(events: &[ProblemEvent], op: &str) -> Vec<Violation> {
    let inst = instances(events);
    #[derive(Clone, Copy)]
    struct Req {
        track: i64,
        req_seq: u64,
        ent_seq: u64, // u64::MAX if never entered
    }
    let reqs: Vec<Req> = inst
        .iter()
        .filter(|i| events[i.request].op == op)
        .map(|i| Req {
            track: events[i.request].params[0],
            req_seq: events[i.request].seq,
            ent_seq: i.enter.map_or(u64::MAX, |e| events[e].seq),
        })
        .collect();
    let mut entered: Vec<&Req> = reqs.iter().filter(|r| r.ent_seq != u64::MAX).collect();
    entered.sort_by_key(|r| r.ent_seq);

    let mut head = 0i64;
    let mut up = true;
    let mut violations = Vec::new();
    for serving in &entered {
        let pending: Vec<i64> = reqs
            .iter()
            .filter(|r| r.req_seq < serving.ent_seq && r.ent_seq >= serving.ent_seq)
            .map(|r| r.track)
            .collect();
        let ahead: Vec<i64> = if up {
            pending.iter().copied().filter(|&t| t >= head).collect()
        } else {
            pending.iter().copied().filter(|&t| t <= head).collect()
        };
        let expected = if !ahead.is_empty() {
            if up {
                *ahead.iter().min().expect("nonempty")
            } else {
                *ahead.iter().max().expect("nonempty")
            }
        } else {
            // Reverse direction.
            if up {
                pending.iter().copied().max().unwrap_or(serving.track)
            } else {
                pending.iter().copied().min().unwrap_or(serving.track)
            }
        };
        if serving.track != expected {
            violations.push(Violation {
                at_seq: serving.ent_seq,
                message: format!(
                    "elevator order violated: served track {} but expected {} \
                     (head {head}, sweeping {}, pending {pending:?})",
                    serving.track,
                    expected,
                    if up { "up" } else { "down" }
                ),
            });
        }
        // Update sweep state from what actually happened.
        if serving.track > head {
            up = true;
        } else if serving.track < head {
            up = false;
        } else if !ahead.contains(&serving.track) {
            up = !up;
        }
        head = serving.track;
    }
    violations
}

/// Checks alarm-clock wake-ups for `op`, whose parameters are
/// `[deadline, clock_at_wake]`: nobody wakes early, and nobody oversleeps
/// by more than `slack` clock units past its deadline.
pub fn check_alarm(events: &[ProblemEvent], op: &str, slack: i64) -> Vec<Violation> {
    let mut violations = Vec::new();
    for e in events
        .iter()
        .filter(|e| e.op == op && e.phase == Phase::Enter)
    {
        let (deadline, woke_at) = (e.params[0], e.params[1]);
        if woke_at < deadline {
            violations.push(Violation {
                at_seq: e.seq,
                message: format!(
                    "{} woke at clock {woke_at}, before deadline {deadline}",
                    e.pid
                ),
            });
        }
        if woke_at - deadline > slack {
            violations.push(Violation {
                at_seq: e.seq,
                message: format!(
                    "{} overslept: deadline {deadline}, woke at {woke_at} (slack {slack})",
                    e.pid
                ),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::test_support::EventScript;
    use crate::events::Phase::{Enter, Exit, Request};

    #[test]
    fn exclusion_detects_overlap() {
        let events = EventScript::new()
            .ev(0, Request, "write", &[])
            .ev(0, Enter, "write", &[])
            .ev(1, Request, "read", &[])
            .ev(1, Enter, "read", &[]) // overlaps the write
            .ev(0, Exit, "write", &[])
            .ev(1, Exit, "read", &[])
            .build();
        let v = check_exclusion(&events, &[("read", "write"), ("write", "write")]);
        assert_eq!(v.len(), 1);
        assert!(v[0]
            .message
            .contains("entered read while 1 execution(s) of write"));
    }

    #[test]
    fn exclusion_allows_disjoint_and_self_concurrent_reads() {
        let events = EventScript::new()
            .re(0, "read")
            .re(1, "read") // reads overlap: fine
            .ev(0, Exit, "read", &[])
            .ev(1, Exit, "read", &[])
            .re(2, "write")
            .ev(2, Exit, "write", &[])
            .build();
        let v = check_exclusion(&events, &[("read", "write"), ("write", "write")]);
        expect_clean(&v, "disjoint rw");
    }

    #[test]
    fn self_exclusion_detects_double_entry() {
        let events = EventScript::new().re(0, "w").re(1, "w").build();
        let v = check_exclusion(&events, &[("w", "w")]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn max_concurrency_counts_correctly() {
        let events = EventScript::new().re(0, "r").re(1, "r").re(2, "r").build();
        assert!(check_max_concurrency(&events, "r", 3).is_empty());
        assert_eq!(check_max_concurrency(&events, "r", 2).len(), 1);
    }

    #[test]
    fn fifo_detects_overtaking() {
        let events = EventScript::new()
            .ev(0, Request, "a", &[])
            .ev(1, Request, "a", &[])
            .ev(1, Enter, "a", &[]) // overtakes pid 0
            .ev(0, Enter, "a", &[])
            .build();
        let v = check_fifo(&events, &["a"]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("FCFS violated"));
    }

    #[test]
    fn fifo_accepts_in_order_service() {
        let events = EventScript::new()
            .ev(0, Request, "a", &[])
            .ev(1, Request, "a", &[])
            .ev(0, Enter, "a", &[])
            .ev(0, Exit, "a", &[])
            .ev(1, Enter, "a", &[])
            .build();
        expect_clean(&check_fifo(&events, &["a"]), "in order");
    }

    #[test]
    fn priority_over_detects_the_footnote3_shape() {
        // Writer 1 writes; the reader requests while it writes; at writer
        // 1's exit (the grant decision) writer 2 is chosen although the
        // reader had been waiting: Bloom's footnote-3 anomaly.
        let events = EventScript::new()
            .ev(1, Request, "write", &[])
            .ev(1, Enter, "write", &[])
            .ev(2, Request, "write", &[])
            .ev(7, Request, "read", &[])
            .ev(1, Exit, "write", &[]) // decision point
            .ev(2, Enter, "write", &[]) // writer 2 beats the waiting reader
            .ev(2, Exit, "write", &[])
            .ev(7, Enter, "read", &[])
            .build();
        let v = check_priority_over(&events, "read", "write");
        assert_eq!(v.len(), 1);
        assert!(v[0]
            .message
            .contains("had been waiting since before the grant decision"));
    }

    #[test]
    fn priority_over_excuses_the_handoff_window() {
        // The reader requests *after* the decision point (writer 1's exit)
        // but before writer 2 actually enters: no mechanism can retract
        // the grant, so this is not a violation.
        let events = EventScript::new()
            .ev(1, Request, "write", &[])
            .ev(1, Enter, "write", &[])
            .ev(2, Request, "write", &[])
            .ev(1, Exit, "write", &[]) // decision point: no reader waiting
            .ev(7, Request, "read", &[])
            .ev(2, Enter, "write", &[])
            .ev(2, Exit, "write", &[])
            .ev(7, Enter, "read", &[])
            .build();
        expect_clean(
            &check_priority_over(&events, "read", "write"),
            "hand-off window",
        );
    }

    #[test]
    fn priority_over_accepts_clean_readers_priority() {
        let events = EventScript::new()
            .re(0, "read")
            .ev(1, Request, "write", &[])
            .ev(0, Exit, "read", &[])
            .ev(1, Enter, "write", &[]) // nobody waiting: fine
            .ev(1, Exit, "write", &[])
            .build();
        expect_clean(
            &check_priority_over(&events, "read", "write"),
            "clean priority",
        );
    }

    #[test]
    fn no_later_overtake_permits_in_flight_but_rejects_newcomers() {
        // Reader in flight before the writer requested: allowed.
        let in_flight = EventScript::new()
            .ev(0, Request, "read", &[])
            .ev(1, Request, "write", &[])
            .ev(0, Enter, "read", &[])
            .ev(0, Exit, "read", &[])
            .ev(1, Enter, "write", &[])
            .build();
        expect_clean(
            &check_no_later_overtake(&in_flight, "write", "read"),
            "in flight",
        );
        // Reader requested after the writer but entered first: violation.
        let newcomer = EventScript::new()
            .ev(1, Request, "write", &[])
            .ev(0, Request, "read", &[])
            .ev(0, Enter, "read", &[])
            .ev(0, Exit, "read", &[])
            .ev(1, Enter, "write", &[])
            .build();
        assert_eq!(check_no_later_overtake(&newcomer, "write", "read").len(), 1);
    }

    #[test]
    fn all_served_flags_starvation() {
        let events = EventScript::new()
            .ev(0, Request, "a", &[])
            .re(1, "a")
            .ev(1, Exit, "a", &[])
            .build();
        let v = check_all_served(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("never granted"));
    }

    #[test]
    fn bounded_bypass_counts_overtakers() {
        let events = EventScript::new()
            .ev(0, Request, "w", &[])
            .re(1, "r")
            .ev(1, Exit, "r", &[])
            .re(2, "r")
            .ev(2, Exit, "r", &[])
            .ev(0, Enter, "w", &[])
            .build();
        assert!(check_bounded_bypass(&events, "w", &["r"], 2).is_empty());
        assert_eq!(check_bounded_bypass(&events, "w", &["r"], 1).len(), 1);
    }

    #[test]
    fn alternation_checks_strict_interleaving() {
        let good = EventScript::new()
            .re(0, "deposit")
            .re(1, "remove")
            .re(0, "deposit")
            .re(1, "remove")
            .build();
        expect_clean(
            &check_alternation(&good, "deposit", "remove"),
            "alternation",
        );
        let bad = EventScript::new().re(0, "deposit").re(0, "deposit").build();
        assert_eq!(check_alternation(&bad, "deposit", "remove").len(), 1);
    }

    #[test]
    fn buffer_bounds_detect_overfill_and_underflow() {
        let overfill = EventScript::new()
            .re(0, "deposit")
            .ev(0, Exit, "deposit", &[])
            .re(0, "deposit")
            .ev(0, Exit, "deposit", &[])
            .re(0, "deposit") // third deposit into capacity-2 buffer
            .build();
        assert_eq!(
            check_buffer_bounds(&overfill, "deposit", "remove", 2).len(),
            1
        );
        let underflow = EventScript::new().re(1, "remove").build();
        assert_eq!(
            check_buffer_bounds(&underflow, "deposit", "remove", 2).len(),
            1
        );
    }

    #[test]
    fn elevator_accepts_scan_order() {
        // Requests at tracks 50, 10, 70 while head starts at 0 going up:
        // SCAN serves 10, 50, 70.
        let events = EventScript::new()
            .ev(0, Request, "seek", &[50])
            .ev(1, Request, "seek", &[10])
            .ev(2, Request, "seek", &[70])
            .ev(1, Enter, "seek", &[10])
            .ev(1, Exit, "seek", &[10])
            .ev(0, Enter, "seek", &[50])
            .ev(0, Exit, "seek", &[50])
            .ev(2, Enter, "seek", &[70])
            .ev(2, Exit, "seek", &[70])
            .build();
        expect_clean(&check_elevator(&events, "seek"), "scan order");
    }

    #[test]
    fn elevator_rejects_nearest_last() {
        let events = EventScript::new()
            .ev(0, Request, "seek", &[50])
            .ev(1, Request, "seek", &[10])
            .ev(0, Enter, "seek", &[50]) // skips 10 on the way up
            .ev(0, Exit, "seek", &[50])
            .ev(1, Enter, "seek", &[10])
            .ev(1, Exit, "seek", &[10])
            .build();
        let v = check_elevator(&events, "seek");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("expected 10"));
    }

    #[test]
    fn elevator_reverses_at_the_top() {
        // Head sweeps up to 80, then a request at 20 (below) is served on
        // the way down.
        let events = EventScript::new()
            .ev(0, Request, "seek", &[80])
            .ev(0, Enter, "seek", &[80])
            .ev(1, Request, "seek", &[20])
            .ev(0, Exit, "seek", &[80])
            .ev(1, Enter, "seek", &[20])
            .ev(1, Exit, "seek", &[20])
            .build();
        expect_clean(&check_elevator(&events, "seek"), "reversal");
    }

    #[test]
    fn alarm_checks_deadline_and_slack() {
        let events = EventScript::new()
            .ev(0, Request, "wake", &[10, 0])
            .ev(0, Enter, "wake", &[10, 10]) // exactly on time
            .ev(1, Request, "wake", &[10, 0])
            .ev(1, Enter, "wake", &[10, 9]) // early!
            .ev(2, Request, "wake", &[10, 0])
            .ev(2, Enter, "wake", &[10, 25]) // overslept with slack 5
            .build();
        let v = check_alarm(&events, "wake", 5);
        assert_eq!(v.len(), 2);
        assert!(v[0].message.contains("before deadline"));
        assert!(v[1].message.contains("overslept"));
    }
}
