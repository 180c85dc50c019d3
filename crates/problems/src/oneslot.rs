//! The one-slot buffer (paper footnote 2: *history information*).
//!
//! A single-cell buffer: `deposit` and `remove` must strictly alternate,
//! starting with `deposit`. The constraint is about *history* — whether an
//! unconsumed deposit has completed — which path expressions encode
//! effortlessly in path position (`path deposit ; remove end`, the example
//! from Campbell & Habermann the paper cites), while the other mechanisms
//! keep an explicit full/empty flag.

use crate::events;
use bloom_core::events::{enter, exit, request};
use bloom_core::{Directness, ImplUnit, InfoType, MechanismId, ProblemId, SolutionDesc};
use bloom_monitor::{Cond, Monitor};
use bloom_pathexpr::PathResource;
use bloom_semaphore::Semaphore;
use bloom_serializer::Serializer;
use bloom_sim::Ctx;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A one-slot buffer holding `i64` values.
pub trait OneSlot: Send + Sync {
    /// Stores `value`; blocks while the slot is full.
    fn deposit(&self, ctx: &Ctx, value: i64);
    /// Takes the stored value; blocks while the slot is empty.
    fn remove(&self, ctx: &Ctx) -> i64;
    /// Evaluation metadata for this solution.
    fn desc(&self) -> SolutionDesc;
}

fn base_desc(
    mechanism: MechanismId,
    units: Vec<ImplUnit>,
    info: &[(InfoType, Directness)],
) -> SolutionDesc {
    SolutionDesc {
        problem: ProblemId::OneSlotBuffer,
        mechanism,
        units,
        info_handling: info.iter().copied().collect::<BTreeMap<_, _>>(),
        workarounds: Vec::new(),
    }
}

/// Semaphore solution: two binary semaphores encode the alternation
/// (`empty` initially open, `full` initially closed); history is carried
/// indirectly by which semaphore is open.
pub struct SemaphoreOneSlot {
    empty: Semaphore,
    full: Semaphore,
    slot: Mutex<Option<i64>>,
}

impl SemaphoreOneSlot {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        SemaphoreOneSlot {
            empty: Semaphore::strong("oneslot.empty", 1),
            full: Semaphore::strong("oneslot.full", 0),
            slot: Mutex::new(None),
        }
    }
}

impl Default for SemaphoreOneSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl OneSlot for SemaphoreOneSlot {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        self.empty.p(ctx);
        enter(ctx, events::DEPOSIT, &[value]);
        *self.slot.lock() = Some(value);
        exit(ctx, events::DEPOSIT, &[value]);
        self.full.v(ctx);
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.full.p(ctx);
        let value = self
            .slot
            .lock()
            .take()
            .expect("full semaphore implies a value");
        enter(ctx, events::REMOVE, &[value]);
        exit(ctx, events::REMOVE, &[value]);
        self.empty.v(ctx);
        value
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Semaphore,
            vec![ImplUnit::new("alternation", "sem:empty/full-pair")],
            &[(InfoType::History, Directness::Indirect)],
        )
    }
}

/// Monitor solution: a `full` flag (history kept as explicit local state)
/// with two conditions.
pub struct MonitorOneSlot {
    monitor: Monitor<Option<i64>>,
    not_full: Cond,
    not_empty: Cond,
}

impl MonitorOneSlot {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        MonitorOneSlot {
            monitor: Monitor::hoare("oneslot", None),
            not_full: Cond::new("oneslot.not_full"),
            not_empty: Cond::new("oneslot.not_empty"),
        }
    }
}

impl Default for MonitorOneSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl OneSlot for MonitorOneSlot {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        self.monitor.enter(ctx, |mc| {
            while mc.state(|s| s.is_some()) {
                mc.wait(&self.not_full);
            }
            enter(ctx, events::DEPOSIT, &[value]);
            mc.state(|s| *s = Some(value));
            exit(ctx, events::DEPOSIT, &[value]);
            mc.signal(&self.not_empty);
        });
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.monitor.enter(ctx, |mc| {
            while mc.state(|s| s.is_none()) {
                mc.wait(&self.not_empty);
            }
            let value = mc.state(|s| s.take()).expect("checked above");
            enter(ctx, events::REMOVE, &[value]);
            exit(ctx, events::REMOVE, &[value]);
            mc.signal(&self.not_full);
            value
        })
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Monitor,
            vec![ImplUnit::new("alternation", "monitor:full-flag+two-conds")],
            &[(InfoType::History, Directness::Direct)],
        )
    }
}

/// Serializer solution: one queue per operation type (a queue is strictly
/// FIFO, so depositors and removers cannot share one — a remover at the
/// head would block the depositor it is waiting for); guards interrogate
/// the slot state.
pub struct SerializerOneSlot {
    ser: Arc<Serializer<Option<i64>>>,
    depositors: bloom_serializer::QueueId,
    removers: bloom_serializer::QueueId,
}

impl SerializerOneSlot {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        let ser = Arc::new(Serializer::new("oneslot", None));
        let depositors = ser.queue("depositors");
        let removers = ser.queue("removers");
        SerializerOneSlot {
            ser,
            depositors,
            removers,
        }
    }
}

impl Default for SerializerOneSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl OneSlot for SerializerOneSlot {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        self.ser.enter(ctx, |sc| {
            sc.enqueue(self.depositors, |v| v.state().is_none());
            enter(ctx, events::DEPOSIT, &[value]);
            sc.state(|s| *s = Some(value));
            exit(ctx, events::DEPOSIT, &[value]);
        });
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.ser.enter(ctx, |sc| {
            sc.enqueue(self.removers, |v| v.state().is_some());
            let value = sc.state(|s| s.take()).expect("guard ensured a value");
            enter(ctx, events::REMOVE, &[value]);
            exit(ctx, events::REMOVE, &[value]);
            value
        })
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Serializer,
            vec![ImplUnit::new(
                "alternation",
                "serializer:guards-on-slot-state",
            )],
            &[(InfoType::History, Directness::Direct)],
        )
    }
}

/// Path-expression solution — the paper's showcase for history
/// information: `path deposit ; remove end` *is* the whole
/// synchronization; no flag, no signal, no guard.
pub struct PathOneSlot {
    paths: PathResource,
    slot: Mutex<Option<i64>>,
}

impl PathOneSlot {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        PathOneSlot {
            paths: PathResource::parse("oneslot", "path deposit ; remove end")
                .expect("static path source"),
            slot: Mutex::new(None),
        }
    }
}

impl Default for PathOneSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl OneSlot for PathOneSlot {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        self.paths.perform(ctx, "deposit", || {
            enter(ctx, events::DEPOSIT, &[value]);
            *self.slot.lock() = Some(value);
            exit(ctx, events::DEPOSIT, &[value]);
        });
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.paths.perform(ctx, "remove", || {
            let value = self
                .slot
                .lock()
                .take()
                .expect("path guarantees a deposit happened");
            enter(ctx, events::REMOVE, &[value]);
            exit(ctx, events::REMOVE, &[value]);
            value
        })
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::PathV1,
            vec![ImplUnit::new("alternation", "path:deposit;remove")],
            &[(InfoType::History, Directness::Direct)],
        )
    }
}

/// Fresh instance of the solution for `mechanism`.
///
/// # Panics
///
/// Panics for [`MechanismId::PathV2`] (the v1 solution is already ideal;
/// there is no distinct v2 solution for this problem).
pub fn make(mechanism: MechanismId) -> Arc<dyn OneSlot> {
    match mechanism {
        MechanismId::Semaphore => Arc::new(SemaphoreOneSlot::new()),
        MechanismId::Monitor => Arc::new(MonitorOneSlot::new()),
        MechanismId::Serializer => Arc::new(SerializerOneSlot::new()),
        MechanismId::PathV1 => Arc::new(PathOneSlot::new()),
        MechanismId::Csp => Arc::new(crate::csp::CspOneSlot::new()),
        MechanismId::PathV2 | MechanismId::PathV3 => {
            panic!("one-slot buffer has no distinct path-v2/v3 solution")
        }
    }
}

/// The mechanisms with a one-slot solution.
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
    use crate::drivers::{oneslot_sim, run};
    use bloom_core::checks::{check_all_served, check_alternation, check_exclusion, expect_clean};
    use bloom_core::events::extract;

    #[test]
    fn all_mechanisms_satisfy_the_one_slot_constraints() {
        for mech in MECHANISMS {
            for seed in [None, Some(1), Some(2), Some(3)] {
                let report = run(oneslot_sim(mech, 6), seed)
                    .unwrap_or_else(|e| panic!("{mech} (seed {seed:?}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_alternation(&events, events::DEPOSIT, events::REMOVE),
                    &format!("{mech} alternation (seed {seed:?})"),
                );
                expect_clean(
                    &check_exclusion(
                        &events,
                        &[
                            (events::DEPOSIT, events::DEPOSIT),
                            (events::REMOVE, events::REMOVE),
                            (events::DEPOSIT, events::REMOVE),
                        ],
                    ),
                    &format!("{mech} exclusion (seed {seed:?})"),
                );
                expect_clean(&check_all_served(&events), &format!("{mech} liveness"));
            }
        }
    }

    #[test]
    fn values_flow_in_order() {
        for mech in MECHANISMS {
            let report = run(oneslot_sim(mech, 5), None).unwrap_or_else(|e| panic!("{mech}: {e}"));
            let events = extract(&report.trace);
            let removed: Vec<i64> = events
                .iter()
                .filter(|e| e.op == events::REMOVE && e.phase == bloom_core::Phase::Exit)
                .map(|e| e.params[0])
                .collect();
            assert_eq!(
                removed,
                vec![0, 1, 2, 3, 4],
                "{mech}: alternation preserves order"
            );
        }
    }

    #[test]
    fn descriptions_attribute_the_alternation_constraint() {
        for mech in MECHANISMS {
            let desc = make(mech).desc();
            assert_eq!(desc.problem, ProblemId::OneSlotBuffer);
            assert_eq!(desc.mechanism, mech);
            assert!(desc.constraints().contains("alternation"), "{mech}");
        }
    }

    #[test]
    fn path_solution_rates_history_direct_semaphore_indirect() {
        let path = make(MechanismId::PathV1).desc();
        let sem = make(MechanismId::Semaphore).desc();
        assert_eq!(path.info_handling[&InfoType::History], Directness::Direct);
        assert_eq!(sem.info_handling[&InfoType::History], Directness::Indirect);
    }
}
