//! Hoare's alarm clock (footnote 2: *request parameters*, with time).
//!
//! Processes call `wake_me(delay)` to sleep until a logical clock — driven
//! by a ticker process calling `tick` — reaches `now + delay`. The
//! priority constraint ("earliest deadline first") conditions on a request
//! argument, and the exclusion constraint ("stay excluded until the clock
//! reaches your deadline") mixes the argument with resource-local state.
//!
//! Mechanism notes:
//!
//! * monitors — Hoare's published solution: a priority-wait condition
//!   keyed by alarm time, with a cascading signal so all due sleepers wake
//!   on one tick;
//! * serializers — an `enqueue` whose *guarantee* is `now >= deadline`:
//!   automatic signalling means `tick` contains no wake-up code at all;
//! * semaphores — an explicit deadline map with a private gate per
//!   sleeper, drained by the ticker;
//! * path expressions — the paper cites the alarm clock (reference \[11\]) as a case
//!   where synchronization procedures are unavoidable: the path contributes
//!   only `path tick end`, the deadline bookkeeping lives outside.

use crate::events::WAKE;
use bloom_core::events::{enter, exit, request};
use bloom_core::{Directness, ImplUnit, InfoType, MechanismId, ProblemId, SolutionDesc};
use bloom_monitor::{Cond, Monitor};
use bloom_pathexpr::PathResource;
use bloom_semaphore::Semaphore;
use bloom_serializer::{QueueId, Serializer};
use bloom_sim::{Ctx, Pid, WaitQueue};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A logical alarm clock.
pub trait AlarmClock: Send + Sync {
    /// Blocks the caller until `delay` ticks from now have elapsed.
    fn wake_me(&self, ctx: &Ctx, delay: i64);
    /// Advances the logical clock by one.
    fn tick(&self, ctx: &Ctx);
    /// Evaluation metadata for this solution.
    fn desc(&self) -> SolutionDesc;
}

fn base_desc(
    mechanism: MechanismId,
    units: Vec<ImplUnit>,
    params: Directness,
    local_rating: Directness,
    workarounds: Vec<String>,
) -> SolutionDesc {
    SolutionDesc {
        problem: ProblemId::AlarmClock,
        mechanism,
        units,
        info_handling: [
            (InfoType::RequestParameters, params),
            (InfoType::LocalState, local_rating),
        ]
        .into_iter()
        .collect::<BTreeMap<_, _>>(),
        workarounds,
    }
}

// ---------------------------------------------------------------------------
// Monitor (Hoare 1974 §6)
// ---------------------------------------------------------------------------

/// Hoare's alarm-clock monitor.
pub struct MonitorAlarm {
    monitor: Monitor<i64>,
    wakeup: Cond,
}

impl MonitorAlarm {
    /// Creates the clock at time zero.
    pub fn new() -> Self {
        MonitorAlarm {
            monitor: Monitor::hoare("alarm", 0),
            wakeup: Cond::new("alarm.wakeup"),
        }
    }
}

impl Default for MonitorAlarm {
    fn default() -> Self {
        Self::new()
    }
}

impl AlarmClock for MonitorAlarm {
    fn wake_me(&self, ctx: &Ctx, delay: i64) {
        self.monitor.enter(ctx, |mc| {
            let deadline = mc.state(|now| *now) + delay;
            request(ctx, WAKE, &[deadline]);
            while mc.state(|now| *now) < deadline {
                // Earliest deadline at the front of the condition queue.
                mc.wait_priority(&self.wakeup, deadline);
            }
            let woke_at = mc.state(|now| *now);
            enter(ctx, WAKE, &[deadline, woke_at]);
            // Cascade: the next sleeper may be due on the same tick.
            mc.signal(&self.wakeup);
        });
        exit(ctx, WAKE, &[]);
    }

    fn tick(&self, ctx: &Ctx) {
        self.monitor.enter(ctx, |mc| {
            mc.state(|now| *now += 1);
            mc.signal(&self.wakeup);
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Monitor,
            vec![
                ImplUnit::new("alarm-wakeup", "monitor:now-counter+deadline-recheck"),
                ImplUnit::new("earliest-first", "monitor:priority-wait+cascade-signal"),
            ],
            Directness::Direct,
            Directness::Direct,
            vec![],
        )
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemAlarmEntry {
    gate: Arc<Semaphore>,
    /// Written by the ticker at grant time so the sleeper can report when
    /// its alarm actually fired.
    fired_at: Arc<Mutex<i64>>,
}

struct SemAlarmState {
    now: i64,
    pending: BTreeMap<(i64, u64), SemAlarmEntry>,
}

/// Explicit deadline map with a private gate per sleeper.
pub struct SemaphoreAlarm {
    state: Mutex<SemAlarmState>,
}

impl SemaphoreAlarm {
    /// Creates the clock at time zero.
    pub fn new() -> Self {
        SemaphoreAlarm {
            state: Mutex::new(SemAlarmState {
                now: 0,
                pending: BTreeMap::new(),
            }),
        }
    }
}

impl Default for SemaphoreAlarm {
    fn default() -> Self {
        Self::new()
    }
}

impl AlarmClock for SemaphoreAlarm {
    fn wake_me(&self, ctx: &Ctx, delay: i64) {
        let (gate, fired_at, deadline) = {
            let mut s = self.state.lock();
            let deadline = s.now + delay;
            request(ctx, WAKE, &[deadline]);
            if s.now >= deadline {
                enter(ctx, WAKE, &[deadline, s.now]);
                exit(ctx, WAKE, &[]);
                return;
            }
            let entry = SemAlarmEntry {
                gate: Arc::new(Semaphore::strong("alarm.gate", 0)),
                fired_at: Arc::new(Mutex::new(0)),
            };
            let handles = (Arc::clone(&entry.gate), Arc::clone(&entry.fired_at));
            s.pending.insert((deadline, ctx.fresh_ticket()), entry);
            (handles.0, handles.1, deadline)
        };
        gate.p(ctx);
        let woke_at = *fired_at.lock();
        enter(ctx, WAKE, &[deadline, woke_at]);
        exit(ctx, WAKE, &[]);
    }

    fn tick(&self, ctx: &Ctx) {
        let due: Vec<Arc<Semaphore>> = {
            let mut s = self.state.lock();
            s.now += 1;
            let now = s.now;
            let mut due = Vec::new();
            while let Some(entry) = s.pending.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                let entry = entry.remove();
                *entry.fired_at.lock() = now;
                due.push(entry.gate);
            }
            due
        };
        for gate in due {
            gate.v(ctx);
        }
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Semaphore,
            vec![
                ImplUnit::new("alarm-wakeup", "sem:deadline-map+ticker-drain"),
                ImplUnit::new("earliest-first", "sem:btreemap-order"),
            ],
            Directness::Workaround,
            Directness::Indirect,
            vec!["per-sleeper private semaphores granted by the ticker".into()],
        )
    }
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

/// Serializer alarm clock: the guarantee *is* the wake condition
/// (`now >= deadline`), so `tick` contains no wake-up logic whatsoever —
/// the paper's automatic-signalling benefit at its clearest.
pub struct SerializerAlarm {
    ser: Arc<Serializer<i64>>,
    alarms: QueueId,
}

impl SerializerAlarm {
    /// Creates the clock at time zero.
    pub fn new() -> Self {
        let ser = Arc::new(Serializer::new("alarm", 0));
        let alarms = ser.queue("alarms");
        SerializerAlarm { ser, alarms }
    }
}

impl Default for SerializerAlarm {
    fn default() -> Self {
        Self::new()
    }
}

impl AlarmClock for SerializerAlarm {
    fn wake_me(&self, ctx: &Ctx, delay: i64) {
        self.ser.enter(ctx, |sc| {
            let deadline = sc.state(|now| *now) + delay;
            request(ctx, WAKE, &[deadline]);
            sc.enqueue_priority(self.alarms, deadline, move |v| *v.state() >= deadline);
            let woke_at = sc.state(|now| *now);
            enter(ctx, WAKE, &[deadline, woke_at]);
        });
        exit(ctx, WAKE, &[]);
    }

    fn tick(&self, ctx: &Ctx) {
        self.ser.enter(ctx, |sc| {
            sc.state(|now| *now += 1);
            // No signalling: releasing possession re-evaluates the
            // guarantees of due sleepers automatically.
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Serializer,
            vec![
                ImplUnit::new("alarm-wakeup", "guard:now>=deadline"),
                ImplUnit::new("earliest-first", "serializer:priority-queue-by-deadline"),
            ],
            Directness::Direct,
            Directness::Direct,
            vec![],
        )
    }
}

// ---------------------------------------------------------------------------
// Path expressions (workaround)
// ---------------------------------------------------------------------------

struct PathAlarmState {
    now: i64,
    pending: BTreeMap<(i64, u64), Pid>,
    granted: BTreeMap<Pid, i64>,
}

/// Path-expression "solution": `path tick end` serializes clock updates
/// (all the paths can express); the deadline bookkeeping and wake-ups are
/// synchronization procedures outside the mechanism — the paper cites the
/// alarm clock as exactly such a case.
pub struct PathAlarm {
    paths: PathResource,
    state: Mutex<PathAlarmState>,
    gate: WaitQueue,
}

impl PathAlarm {
    /// Creates the clock at time zero.
    pub fn new() -> Self {
        PathAlarm {
            paths: PathResource::parse("alarm", "path tick end").expect("static path source"),
            state: Mutex::new(PathAlarmState {
                now: 0,
                pending: BTreeMap::new(),
                granted: BTreeMap::new(),
            }),
            gate: WaitQueue::new("alarm.sleepers"),
        }
    }
}

impl Default for PathAlarm {
    fn default() -> Self {
        Self::new()
    }
}

impl AlarmClock for PathAlarm {
    fn wake_me(&self, ctx: &Ctx, delay: i64) {
        let deadline = {
            let mut s = self.state.lock();
            let deadline = s.now + delay;
            request(ctx, WAKE, &[deadline]);
            if s.now >= deadline {
                let now = s.now;
                enter(ctx, WAKE, &[deadline, now]);
                exit(ctx, WAKE, &[]);
                return;
            }
            s.pending.insert((deadline, ctx.fresh_ticket()), ctx.pid());
            deadline
        };
        self.gate.wait(ctx);
        let woke_at = self
            .state
            .lock()
            .granted
            .remove(&ctx.pid())
            .expect("ticker recorded our grant");
        enter(ctx, WAKE, &[deadline, woke_at]);
        exit(ctx, WAKE, &[]);
    }

    fn tick(&self, ctx: &Ctx) {
        self.paths.perform(ctx, "tick", || {
            let due: Vec<Pid> = {
                let mut s = self.state.lock();
                s.now += 1;
                let now = s.now;
                let mut due = Vec::new();
                while let Some(entry) = s.pending.first_entry() {
                    if entry.key().0 > now {
                        break;
                    }
                    let pid = entry.remove();
                    s.granted.insert(pid, now);
                    due.push(pid);
                }
                due
            };
            for pid in due {
                self.gate.wake_pid(ctx, pid);
            }
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::PathV1,
            vec![
                ImplUnit::new("alarm-wakeup", "syncproc:deadline-map-outside-paths"),
                ImplUnit::new("earliest-first", "syncproc:btreemap-order"),
            ],
            Directness::Workaround,
            Directness::Workaround,
            vec!["wake-up policy implemented entirely outside the path mechanism".into()],
        )
    }
}

/// Fresh instance of the solution for `mechanism`.
///
/// # Panics
///
/// Panics for [`MechanismId::PathV2`] (the numeric operator does not give
/// paths access to request parameters).
pub fn make(mechanism: MechanismId) -> Arc<dyn AlarmClock> {
    match mechanism {
        MechanismId::Semaphore => Arc::new(SemaphoreAlarm::new()),
        MechanismId::Monitor => Arc::new(MonitorAlarm::new()),
        MechanismId::Serializer => Arc::new(SerializerAlarm::new()),
        MechanismId::PathV1 => Arc::new(PathAlarm::new()),
        MechanismId::Csp => Arc::new(crate::csp::CspAlarm::new()),
        MechanismId::PathV2 | MechanismId::PathV3 => {
            panic!("alarm clock has no distinct path-v2/v3 solution")
        }
    }
}

/// The mechanisms with an alarm-clock solution.
pub const MECHANISMS: [MechanismId; 5] = [
    MechanismId::Semaphore,
    MechanismId::Monitor,
    MechanismId::Serializer,
    MechanismId::PathV1,
    MechanismId::Csp,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{alarm_sim, run};
    use bloom_core::checks::{check_alarm, check_all_served, expect_clean};
    use bloom_core::events::extract;

    #[test]
    fn nobody_wakes_early_or_oversleeps() {
        for mech in MECHANISMS {
            for (workload, sched) in [(1u64, None), (2, None), (3, Some(101)), (4, Some(102))] {
                let report = run(alarm_sim(mech, 5, workload), sched)
                    .unwrap_or_else(|e| panic!("{mech} (workload {workload}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_alarm(&events, WAKE, 1),
                    &format!("{mech} alarm timing (workload {workload}, sched {sched:?})"),
                );
                expect_clean(&check_all_served(&events), &format!("{mech} liveness"));
            }
        }
    }

    /// Scripted: three sleepers with deadlines 3, 1, 2 wake in deadline
    /// order regardless of registration order.
    #[test]
    fn sleepers_wake_in_deadline_order() {
        for mech in MECHANISMS {
            let mut sim = bloom_sim::Sim::new();
            let clock = make(mech);
            let order = Arc::new(Mutex::new(Vec::new()));
            for (i, delay) in [3i64, 1, 2].into_iter().enumerate() {
                let c = Arc::clone(&clock);
                let o = Arc::clone(&order);
                sim.spawn(&format!("sleeper{i}"), move |ctx| {
                    c.wake_me(ctx, delay);
                    o.lock().push(delay);
                });
            }
            let c = Arc::clone(&clock);
            sim.spawn_daemon("ticker", move |ctx| loop {
                ctx.sleep(1);
                c.tick(ctx);
            });
            sim.run().unwrap();
            assert_eq!(*order.lock(), vec![1, 2, 3], "{mech} deadline order");
        }
    }

    #[test]
    fn zero_or_negative_delay_wakes_immediately_where_supported() {
        // Semaphore and path solutions short-circuit a due deadline; the
        // monitor and serializer re-check `now` and fall straight through.
        for mech in MECHANISMS {
            let mut sim = bloom_sim::Sim::new();
            let clock = make(mech);
            let c = Arc::clone(&clock);
            sim.spawn("eager", move |ctx| {
                c.wake_me(ctx, 0);
                ctx.emit("awake", &[]);
            });
            let report = sim.run().unwrap();
            assert_eq!(report.trace.count_user("awake"), 1, "{mech}");
        }
    }

    #[test]
    fn descriptions_attribute_both_constraints() {
        for mech in MECHANISMS {
            let d = make(mech).desc();
            assert!(d.constraints().contains("alarm-wakeup"), "{mech}");
            assert!(d.constraints().contains("earliest-first"), "{mech}");
        }
        assert_eq!(
            make(MechanismId::Serializer).desc().info_handling[&InfoType::RequestParameters],
            Directness::Direct
        );
        assert_eq!(
            make(MechanismId::PathV1).desc().info_handling[&InfoType::RequestParameters],
            Directness::Workaround
        );
    }
}
