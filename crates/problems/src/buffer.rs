//! The bounded buffer (paper footnote 2: *local state information*).
//!
//! Producers deposit into and consumers remove from an N-slot FIFO buffer;
//! a deposit is excluded while the buffer is full, a remove while it is
//! empty — conditions on the *local state* of the unsynchronized resource.
//!
//! The path-expression solution is the ablation pivot: version-1 path
//! expressions cannot express "fewer than N in flight" (the paper reports
//! the numeric operator was added later to fix exactly this), so the
//! [`MechanismId::PathV2`] solution uses `path N : (deposit ; remove) end`
//! and there is deliberately no v1 solution.

use crate::events;
use bloom_core::events::{enter, exit, request};
use bloom_core::{Directness, ImplUnit, InfoType, MechanismId, ProblemId, SolutionDesc};
use bloom_monitor::{Cond, Monitor};
use bloom_pathexpr::PathResource;
use bloom_semaphore::{Lock, Semaphore};
use bloom_serializer::Serializer;
use bloom_sim::Ctx;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A bounded FIFO buffer of `i64` values.
pub trait BoundedBuffer: Send + Sync {
    /// Appends `value`; blocks while the buffer is full.
    fn deposit(&self, ctx: &Ctx, value: i64);
    /// Takes the oldest value; blocks while the buffer is empty.
    fn remove(&self, ctx: &Ctx) -> i64;
    /// The buffer's capacity.
    fn capacity(&self) -> usize;
    /// Evaluation metadata for this solution.
    fn desc(&self) -> SolutionDesc;
}

fn base_desc(
    mechanism: MechanismId,
    units: Vec<ImplUnit>,
    info: &[(InfoType, Directness)],
) -> SolutionDesc {
    SolutionDesc {
        problem: ProblemId::BoundedBuffer,
        mechanism,
        units,
        info_handling: info.iter().copied().collect::<BTreeMap<_, _>>(),
        workarounds: Vec::new(),
    }
}

/// Classic split-semaphore solution: `empty` counts free slots, `full`
/// counts occupied ones, a lock protects the queue. Local state (the fill
/// level) is mirrored *indirectly* in semaphore counts.
pub struct SemaphoreBuffer {
    empty: Semaphore,
    full: Semaphore,
    lock: Lock,
    items: Mutex<VecDeque<i64>>,
    capacity: usize,
}

impl SemaphoreBuffer {
    /// Creates an empty buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        SemaphoreBuffer {
            empty: Semaphore::strong("buffer.empty", capacity as u64),
            full: Semaphore::strong("buffer.full", 0),
            lock: Lock::new("buffer.lock"),
            items: Mutex::new(VecDeque::new()),
            capacity,
        }
    }
}

impl BoundedBuffer for SemaphoreBuffer {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        self.empty.p(ctx);
        self.lock.with(ctx, || {
            enter(ctx, events::DEPOSIT, &[value]);
            self.items.lock().push_back(value);
            exit(ctx, events::DEPOSIT, &[value]);
        });
        self.full.v(ctx);
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.full.p(ctx);
        let value = self.lock.with(ctx, || {
            let value = self
                .items
                .lock()
                .pop_front()
                .expect("full count implies an item");
            enter(ctx, events::REMOVE, &[value]);
            exit(ctx, events::REMOVE, &[value]);
            value
        });
        self.empty.v(ctx);
        value
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Semaphore,
            vec![
                ImplUnit::new("buffer-mutex", "sem:lock"),
                ImplUnit::new("not-full", "sem:empty-count"),
                ImplUnit::new("not-empty", "sem:full-count"),
            ],
            &[(InfoType::LocalState, Directness::Indirect)],
        )
    }
}

/// Hoare-monitor solution: the buffer is monitor data; `not_full` /
/// `not_empty` conditions wait on its local state directly.
pub struct MonitorBuffer {
    monitor: Monitor<VecDeque<i64>>,
    not_full: Cond,
    not_empty: Cond,
    capacity: usize,
}

impl MonitorBuffer {
    /// Creates an empty buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        MonitorBuffer {
            monitor: Monitor::hoare("buffer", VecDeque::new()),
            not_full: Cond::new("buffer.not_full"),
            not_empty: Cond::new("buffer.not_empty"),
            capacity,
        }
    }
}

impl BoundedBuffer for MonitorBuffer {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        self.monitor.enter(ctx, |mc| {
            while mc.state(|q| q.len()) >= self.capacity {
                mc.wait(&self.not_full);
            }
            enter(ctx, events::DEPOSIT, &[value]);
            mc.state(|q| q.push_back(value));
            exit(ctx, events::DEPOSIT, &[value]);
            mc.signal(&self.not_empty);
        });
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.monitor.enter(ctx, |mc| {
            while mc.state(|q| q.is_empty()) {
                mc.wait(&self.not_empty);
            }
            let value = mc.state(|q| q.pop_front()).expect("checked above");
            enter(ctx, events::REMOVE, &[value]);
            exit(ctx, events::REMOVE, &[value]);
            mc.signal(&self.not_full);
            value
        })
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Monitor,
            vec![
                ImplUnit::new("buffer-mutex", "monitor:possession"),
                ImplUnit::new("not-full", "monitor:cond-not-full"),
                ImplUnit::new("not-empty", "monitor:cond-not-empty"),
            ],
            &[(InfoType::LocalState, Directness::Direct)],
        )
    }
}

/// Serializer solution: one queue per operation type (queues are strictly
/// FIFO, so a remover waiting at the head of a shared queue would block
/// the depositors behind it); guards read the buffer's local state, and
/// possession provides the mutual exclusion.
pub struct SerializerBuffer {
    ser: Arc<Serializer<VecDeque<i64>>>,
    depositors: bloom_serializer::QueueId,
    removers: bloom_serializer::QueueId,
    capacity: usize,
}

impl SerializerBuffer {
    /// Creates an empty buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        let ser = Arc::new(Serializer::new("buffer", VecDeque::new()));
        let depositors = ser.queue("depositors");
        let removers = ser.queue("removers");
        SerializerBuffer {
            ser,
            depositors,
            removers,
            capacity,
        }
    }
}

impl BoundedBuffer for SerializerBuffer {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        let cap = self.capacity;
        self.ser.enter(ctx, |sc| {
            sc.enqueue(self.depositors, move |v| v.state().len() < cap);
            enter(ctx, events::DEPOSIT, &[value]);
            sc.state(|q| q.push_back(value));
            exit(ctx, events::DEPOSIT, &[value]);
        });
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.ser.enter(ctx, |sc| {
            sc.enqueue(self.removers, |v| !v.state().is_empty());
            let value = sc.state(|q| q.pop_front()).expect("guard ensured an item");
            enter(ctx, events::REMOVE, &[value]);
            exit(ctx, events::REMOVE, &[value]);
            value
        })
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Serializer,
            vec![
                ImplUnit::new("buffer-mutex", "serializer:possession"),
                ImplUnit::new("not-full", "guard:len<capacity"),
                ImplUnit::new("not-empty", "guard:nonempty"),
            ],
            &[(InfoType::LocalState, Directness::Direct)],
        )
    }
}

/// Version-2 path-expression solution: `path N : (deposit ; remove) end`.
/// The numeric operator admits up to N concurrent deposit→remove cycles —
/// precisely the buffer bound — so the fill level lives in the path state
/// rather than in resource variables. Deposits (and removes) may overlap
/// each other, so the store itself is an order-preserving queue guarded by
/// a plain lock (the resource's own integrity, not synchronization).
pub struct PathBuffer {
    paths: PathResource,
    items: Mutex<VecDeque<i64>>,
    capacity: usize,
}

impl PathBuffer {
    /// Creates an empty buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        PathBuffer {
            paths: PathResource::parse(
                "buffer",
                &format!("path {capacity} : (deposit ; remove) end"),
            )
            .expect("static path source"),
            items: Mutex::new(VecDeque::new()),
            capacity,
        }
    }
}

impl BoundedBuffer for PathBuffer {
    fn deposit(&self, ctx: &Ctx, value: i64) {
        request(ctx, events::DEPOSIT, &[value]);
        self.paths.perform(ctx, "deposit", || {
            enter(ctx, events::DEPOSIT, &[value]);
            self.items.lock().push_back(value);
            exit(ctx, events::DEPOSIT, &[value]);
        });
    }

    fn remove(&self, ctx: &Ctx) -> i64 {
        request(ctx, events::REMOVE, &[]);
        self.paths.perform(ctx, "remove", || {
            let value = self
                .items
                .lock()
                .pop_front()
                .expect("path pairs removes with deposits");
            enter(ctx, events::REMOVE, &[value]);
            exit(ctx, events::REMOVE, &[value]);
            value
        })
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::PathV2,
            vec![
                ImplUnit::new("buffer-mutex", "path:cycle-pairing"),
                ImplUnit::new("not-full", "path:numeric-bound"),
                ImplUnit::new("not-empty", "path:deposit;remove-sequencing"),
            ],
            &[(InfoType::LocalState, Directness::Indirect)],
        )
    }
}

/// Fresh instance of the solution for `mechanism`.
///
/// # Panics
///
/// Panics for [`MechanismId::PathV1`]: version-1 path expressions cannot
/// bound the fill level (the expressiveness gap the paper reports the
/// numeric operator was invented to fix).
pub fn make(mechanism: MechanismId, capacity: usize) -> Arc<dyn BoundedBuffer> {
    match mechanism {
        MechanismId::Semaphore => Arc::new(SemaphoreBuffer::new(capacity)),
        MechanismId::Monitor => Arc::new(MonitorBuffer::new(capacity)),
        MechanismId::Serializer => Arc::new(SerializerBuffer::new(capacity)),
        MechanismId::PathV2 => Arc::new(PathBuffer::new(capacity)),
        MechanismId::Csp => Arc::new(crate::csp::CspBuffer::new(capacity)),
        MechanismId::PathV1 => {
            panic!("bounded buffer is inexpressible in v1 path expressions (paper §5.1)")
        }
        MechanismId::PathV3 => {
            panic!("use the v2 numeric-operator solution; v3 predicates add nothing here")
        }
    }
}

/// The mechanisms with a bounded-buffer solution.
pub const MECHANISMS: [MechanismId; 5] = [
    MechanismId::Semaphore,
    MechanismId::Monitor,
    MechanismId::Serializer,
    MechanismId::PathV2,
    MechanismId::Csp,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{buffer_sim, buffer_transfers, run};
    use bloom_core::checks::{check_all_served, check_buffer_bounds, expect_clean};
    use bloom_core::events::extract;

    #[test]
    fn all_mechanisms_respect_capacity_and_liveness() {
        for mech in MECHANISMS {
            for seed in [None, Some(4), Some(5)] {
                let report = run(buffer_sim(mech, 3, 2, 2, 6), seed)
                    .unwrap_or_else(|e| panic!("{mech} (seed {seed:?}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_buffer_bounds(&events, events::DEPOSIT, events::REMOVE, 3),
                    &format!("{mech} bounds (seed {seed:?})"),
                );
                expect_clean(&check_all_served(&events), &format!("{mech} liveness"));
                let (mut s, mut r) = buffer_transfers(&report.trace);
                s.sort_unstable();
                r.sort_unstable();
                assert_eq!(
                    s, r,
                    "{mech}: every deposited value is removed exactly once"
                );
            }
        }
    }

    #[test]
    fn capacity_one_behaves_like_one_slot() {
        for mech in MECHANISMS {
            let report =
                run(buffer_sim(mech, 1, 1, 1, 8), None).unwrap_or_else(|e| panic!("{mech}: {e}"));
            let events = extract(&report.trace);
            expect_clean(
                &check_buffer_bounds(&events, events::DEPOSIT, events::REMOVE, 1),
                &format!("{mech} capacity-1 bounds"),
            );
        }
    }

    #[test]
    fn single_threaded_fifo_order_is_preserved() {
        // One producer, one consumer: FIFO data order must hold exactly.
        for mech in MECHANISMS {
            let report =
                run(buffer_sim(mech, 4, 1, 1, 10), None).unwrap_or_else(|e| panic!("{mech}: {e}"));
            let (sent, received) = buffer_transfers(&report.trace);
            assert_eq!(sent, received, "{mech}: FIFO order");
        }
    }

    #[test]
    fn path_v1_is_rejected_with_the_papers_reason() {
        let err = std::panic::catch_unwind(|| {
            let _ = make(MechanismId::PathV1, 3);
        })
        .expect_err("must panic");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("inexpressible"), "got: {msg}");
    }

    #[test]
    fn descriptions_cover_all_three_constraints() {
        for mech in MECHANISMS {
            let desc = make(mech, 3).desc();
            for c in ["buffer-mutex", "not-full", "not-empty"] {
                assert!(desc.constraints().contains(c), "{mech} missing {c}");
            }
        }
    }
}
