//! First-come-first-served resource allocation (footnote 2: *request
//! time*).
//!
//! One resource, many requesters, strict arrival-order service. The only
//! information the priority constraint needs is *when* each request was
//! made — which is exactly what FIFO queues encode, so each mechanism's
//! solution shows how its queues expose request time:
//!
//! * semaphores — a strong (FIFO hand-off) semaphore is the constraint;
//! * monitors — a condition queue is FIFO, but only Hoare hand-off keeps
//!   bargers from breaking the order;
//! * serializers — a single queue with an always-eligible-when-free guard;
//! * path expressions — `path use end` plus the longest-waiting selection
//!   rule *is* FCFS, the most direct expression of all.

use crate::events;
use bloom_core::events::{enter, exit, request};
use bloom_core::{Directness, ImplUnit, InfoType, MechanismId, ProblemId, SolutionDesc};
use bloom_monitor::{Cond, Monitor};
use bloom_pathexpr::PathResource;
use bloom_semaphore::Semaphore;
use bloom_serializer::Serializer;
use bloom_sim::Ctx;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A resource served in strict request order.
pub trait FcfsResource: Send + Sync {
    /// Runs `body` while holding the resource; grants are FCFS.
    fn with_resource(&self, ctx: &Ctx, body: &mut dyn FnMut());
    /// Evaluation metadata for this solution.
    fn desc(&self) -> SolutionDesc;
}

fn base_desc(
    mechanism: MechanismId,
    units: Vec<ImplUnit>,
    time_rating: Directness,
    sync_rating: Directness,
) -> SolutionDesc {
    SolutionDesc {
        problem: ProblemId::FcfsResource,
        mechanism,
        units,
        info_handling: [
            (InfoType::RequestTime, time_rating),
            (InfoType::SyncState, sync_rating),
        ]
        .into_iter()
        .collect::<BTreeMap<_, _>>(),
        workarounds: Vec::new(),
    }
}

/// Strong-semaphore solution: the FIFO hand-off of [`Semaphore::strong`]
/// carries the request-time information.
pub struct SemaphoreFcfs {
    sem: Semaphore,
}

impl SemaphoreFcfs {
    /// Creates the resource, initially free.
    pub fn new() -> Self {
        SemaphoreFcfs {
            sem: Semaphore::strong("fcfs.resource", 1),
        }
    }
}

impl Default for SemaphoreFcfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FcfsResource for SemaphoreFcfs {
    fn with_resource(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        request(ctx, events::USE, &[]);
        self.sem.p(ctx);
        enter(ctx, events::USE, &[]);
        body();
        exit(ctx, events::USE, &[]);
        self.sem.v(ctx);
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Semaphore,
            vec![
                ImplUnit::new("resource-mutex", "sem:binary"),
                ImplUnit::new("fcfs-order", "sem:strong-fifo-handoff"),
            ],
            Directness::Indirect,
            Directness::Indirect,
        )
    }
}

/// Hoare-monitor solution: a busy flag plus one FIFO condition. Hoare
/// hand-off is essential — under signal-and-continue a barger entering
/// between release and the woken process's re-entry would break FCFS.
pub struct MonitorFcfs {
    monitor: Monitor<bool>,
    turn: Cond,
}

impl MonitorFcfs {
    /// Creates the resource, initially free.
    pub fn new() -> Self {
        MonitorFcfs {
            monitor: Monitor::hoare("fcfs", false),
            turn: Cond::new("fcfs.turn"),
        }
    }
}

impl Default for MonitorFcfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FcfsResource for MonitorFcfs {
    fn with_resource(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        request(ctx, events::USE, &[]);
        self.monitor.enter(ctx, |mc| {
            if mc.state(|busy| *busy) {
                mc.wait(&self.turn);
                // Hoare semantics: the releaser cleared `busy` and handed
                // us the monitor; no re-check loop is needed.
            }
            mc.state(|busy| *busy = true);
        });
        enter(ctx, events::USE, &[]);
        body();
        exit(ctx, events::USE, &[]);
        self.monitor.enter(ctx, |mc| {
            mc.state(|busy| *busy = false);
            mc.signal(&self.turn);
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Monitor,
            vec![
                ImplUnit::new("resource-mutex", "monitor:busy-flag"),
                ImplUnit::new("fcfs-order", "monitor:cond-fifo+hoare-handoff"),
            ],
            Directness::Direct,
            Directness::Indirect,
        )
    }
}

/// Serializer solution: one queue (FIFO by definition) and a crowd so the
/// guard can see whether the resource is occupied.
pub struct SerializerFcfs {
    ser: Arc<Serializer<()>>,
    queue: bloom_serializer::QueueId,
    holders: bloom_serializer::CrowdId,
}

impl SerializerFcfs {
    /// Creates the resource, initially free.
    pub fn new() -> Self {
        let ser = Arc::new(Serializer::new("fcfs", ()));
        let queue = ser.queue("arrivals");
        let holders = ser.crowd("holders");
        SerializerFcfs {
            ser,
            queue,
            holders,
        }
    }
}

impl Default for SerializerFcfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FcfsResource for SerializerFcfs {
    fn with_resource(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        request(ctx, events::USE, &[]);
        let holders = self.holders;
        self.ser.enter(ctx, |sc| {
            sc.enqueue(self.queue, move |v| v.crowd_is_empty(holders));
            enter(ctx, events::USE, &[]);
            sc.join_crowd(holders, || {
                body();
            });
            exit(ctx, events::USE, &[]);
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Serializer,
            vec![
                ImplUnit::new("resource-mutex", "guard:holders-crowd-empty"),
                ImplUnit::new("fcfs-order", "serializer:single-fifo-queue"),
            ],
            Directness::Direct,
            Directness::Direct,
        )
    }
}

/// Path-expression solution: `path use end`. The cyclic single-operation
/// path serializes executions, and the longest-waiting selection rule
/// makes the service order FCFS — the entire problem in four words.
pub struct PathFcfs {
    paths: PathResource,
}

impl PathFcfs {
    /// Creates the resource, initially free.
    pub fn new() -> Self {
        PathFcfs {
            paths: PathResource::parse("fcfs", "path use end").expect("static path source"),
        }
    }
}

impl Default for PathFcfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FcfsResource for PathFcfs {
    fn with_resource(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        request(ctx, events::USE, &[]);
        self.paths.perform(ctx, "use", || {
            enter(ctx, events::USE, &[]);
            body();
            exit(ctx, events::USE, &[]);
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::PathV1,
            vec![
                ImplUnit::new("resource-mutex", "path:use-cycle"),
                ImplUnit::new("fcfs-order", "path:longest-waiting-selection"),
            ],
            Directness::Indirect, // rides on the selection-rule assumption
            Directness::Indirect,
        )
    }
}

/// Fresh instance of the solution for `mechanism`.
///
/// # Panics
///
/// Panics for [`MechanismId::PathV2`] (identical to the v1 solution).
pub fn make(mechanism: MechanismId) -> Arc<dyn FcfsResource> {
    match mechanism {
        MechanismId::Semaphore => Arc::new(SemaphoreFcfs::new()),
        MechanismId::Monitor => Arc::new(MonitorFcfs::new()),
        MechanismId::Serializer => Arc::new(SerializerFcfs::new()),
        MechanismId::PathV1 => Arc::new(PathFcfs::new()),
        MechanismId::Csp => Arc::new(crate::csp::CspFcfs::new()),
        MechanismId::PathV2 | MechanismId::PathV3 => {
            panic!("FCFS has no distinct path-v2/v3 solution")
        }
    }
}

/// The mechanisms with an FCFS solution.
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
    use crate::drivers::{fcfs_sim, run};
    use bloom_core::checks::{check_all_served, check_exclusion, check_fifo, expect_clean};
    use bloom_core::events::extract;

    #[test]
    fn all_mechanisms_serve_strictly_in_request_order() {
        for mech in MECHANISMS {
            for seed in [None, Some(11), Some(12), Some(13)] {
                let report = run(fcfs_sim(mech, 5, 4), seed)
                    .unwrap_or_else(|e| panic!("{mech} (seed {seed:?}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_fifo(&events, &[events::USE]),
                    &format!("{mech} FCFS (seed {seed:?})"),
                );
                expect_clean(
                    &check_exclusion(&events, &[(events::USE, events::USE)]),
                    &format!("{mech} exclusion (seed {seed:?})"),
                );
                expect_clean(&check_all_served(&events), &format!("{mech} liveness"));
            }
        }
    }

    #[test]
    fn fcfs_holds_under_many_random_schedules() {
        for mech in MECHANISMS {
            for seed in 20..30 {
                let report = run(fcfs_sim(mech, 4, 3), Some(seed))
                    .unwrap_or_else(|e| panic!("{mech} (seed {seed}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_fifo(&events, &[events::USE]),
                    &format!("{mech} FCFS (seed {seed})"),
                );
            }
        }
    }

    #[test]
    fn descriptions_attribute_both_constraints() {
        for mech in MECHANISMS {
            let d = make(mech).desc();
            assert!(d.constraints().contains("resource-mutex"), "{mech}");
            assert!(d.constraints().contains("fcfs-order"), "{mech}");
        }
    }
}
