//! Hoare's disk-head scheduler (footnote 2: *request parameters*).
//!
//! Pending seeks are served in elevator (SCAN) order by requested track:
//! continue in the current direction of head movement, nearest track
//! first; reverse when the sweep is exhausted. The priority constraint's
//! condition is a function of the *argument* of each request — the
//! information type that separates the mechanisms most sharply:
//!
//! * monitors — Hoare's own solution: two conditions with **priority
//!   wait** (`wait(track)` / `wait(-track)`), the construct he introduced
//!   for exactly this example;
//! * serializers — two priority queues whose guards compare the waiter's
//!   track against a `scan_next` function of the protected state;
//! * semaphores — an explicit pending map with one private gate per
//!   request, granted by the releaser;
//! * path expressions — **cannot** express parameter-dependent order
//!   (paper §5.1): the path contributes only `path seek end` (the
//!   exclusion constraint) and the entire elevator policy lives in
//!   synchronization-procedure code outside the mechanism.

use crate::events::SEEK;
use bloom_core::events::{enter, exit, request};
use bloom_core::{Directness, ImplUnit, InfoType, MechanismId, ProblemId, SolutionDesc};
use bloom_monitor::{Cond, Monitor};
use bloom_pathexpr::PathResource;
use bloom_semaphore::Semaphore;
use bloom_serializer::{CrowdId, QueueId, Serializer};
use bloom_sim::{Ctx, Pid, WaitQueue};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A disk arm serving seeks in elevator order.
pub trait DiskScheduler: Send + Sync {
    /// Seeks to `track` and runs `body` with the head there.
    fn seek(&self, ctx: &Ctx, track: i64, body: &mut dyn FnMut());
    /// Evaluation metadata for this solution.
    fn desc(&self) -> SolutionDesc;
}

fn base_desc(
    mechanism: MechanismId,
    units: Vec<ImplUnit>,
    params: Directness,
    sync_rating: Directness,
    workarounds: Vec<String>,
) -> SolutionDesc {
    SolutionDesc {
        problem: ProblemId::DiskScheduler,
        mechanism,
        units,
        info_handling: [
            (InfoType::RequestParameters, params),
            (InfoType::SyncState, sync_rating),
        ]
        .into_iter()
        .collect::<BTreeMap<_, _>>(),
        workarounds,
    }
}

/// Sweep direction of the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Up,
    Down,
}

/// Routing rule shared by all solutions (and mirrored by the checker):
/// which sweep should a new request join?
fn joins_up(dir: Dir, head: i64, track: i64) -> bool {
    match dir {
        Dir::Up => track >= head,
        Dir::Down => track > head,
    }
}

// ---------------------------------------------------------------------------
// Monitor (Hoare 1974 §5)
// ---------------------------------------------------------------------------

struct MonitorDiskState {
    head: i64,
    dir: Dir,
    busy: bool,
}

/// Hoare's disc-head scheduler monitor.
pub struct MonitorDisk {
    monitor: Monitor<MonitorDiskState>,
    upsweep: Cond,
    downsweep: Cond,
}

impl MonitorDisk {
    /// Creates the scheduler with the head parked at track 0, sweeping up.
    pub fn new() -> Self {
        MonitorDisk {
            monitor: Monitor::hoare(
                "disk",
                MonitorDiskState {
                    head: 0,
                    dir: Dir::Up,
                    busy: false,
                },
            ),
            upsweep: Cond::new("disk.upsweep"),
            downsweep: Cond::new("disk.downsweep"),
        }
    }
}

impl Default for MonitorDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskScheduler for MonitorDisk {
    fn seek(&self, ctx: &Ctx, track: i64, body: &mut dyn FnMut()) {
        request(ctx, SEEK, &[track]);
        self.monitor.enter(ctx, |mc| {
            if mc.state(|s| s.busy) {
                let up = mc.state(|s| joins_up(s.dir, s.head, track));
                if up {
                    // Lower tracks first on the way up.
                    mc.wait_priority(&self.upsweep, track);
                } else {
                    // Higher tracks first on the way down.
                    mc.wait_priority(&self.downsweep, -track);
                }
                // Hoare hand-off: the releaser chose us; we own the arm.
            }
            mc.state(|s| {
                s.busy = true;
                if track > s.head {
                    s.dir = Dir::Up;
                } else if track < s.head {
                    s.dir = Dir::Down;
                }
                s.head = track;
            });
        });
        enter(ctx, SEEK, &[track]);
        body();
        exit(ctx, SEEK, &[track]);
        self.monitor.enter(ctx, |mc| {
            mc.state(|s| s.busy = false);
            let dir = mc.state(|s| s.dir);
            match dir {
                Dir::Up => {
                    if !self.upsweep.is_empty() {
                        mc.signal(&self.upsweep);
                    } else {
                        mc.state(|s| s.dir = Dir::Down);
                        mc.signal(&self.downsweep);
                    }
                }
                Dir::Down => {
                    if !self.downsweep.is_empty() {
                        mc.signal(&self.downsweep);
                    } else {
                        mc.state(|s| s.dir = Dir::Up);
                        mc.signal(&self.upsweep);
                    }
                }
            }
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Monitor,
            vec![
                ImplUnit::new("head-mutex", "monitor:busy-flag"),
                ImplUnit::new("elevator-order", "monitor:priority-wait-two-sweeps"),
            ],
            Directness::Direct,
            Directness::Indirect,
            vec![],
        )
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemDiskState {
    head: i64,
    dir: Dir,
    busy: bool,
    /// `(track, ticket) -> gate`, minimum first: the up sweep.
    pending_up: BTreeMap<(i64, u64), Arc<Semaphore>>,
    /// `(-track, ticket) -> gate`, so `first` is the highest track: down.
    pending_down: BTreeMap<(i64, u64), Arc<Semaphore>>,
}

/// Hand-built SCAN over a mutex-protected pending map with one private
/// gate semaphore per request — everything the monitor gives for free,
/// spelled out by the programmer.
pub struct SemaphoreDisk {
    state: Mutex<SemDiskState>,
}

impl SemaphoreDisk {
    /// Creates the scheduler with the head parked at track 0, sweeping up.
    pub fn new() -> Self {
        SemaphoreDisk {
            state: Mutex::new(SemDiskState {
                head: 0,
                dir: Dir::Up,
                busy: false,
                pending_up: BTreeMap::new(),
                pending_down: BTreeMap::new(),
            }),
        }
    }
}

impl Default for SemaphoreDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl SemDiskState {
    fn note_service(&mut self, track: i64) {
        self.busy = true;
        if track > self.head {
            self.dir = Dir::Up;
        } else if track < self.head {
            self.dir = Dir::Down;
        }
        self.head = track;
    }

    /// Picks the SCAN-next pending request and removes it.
    fn grant_next(&mut self) -> Option<(i64, Arc<Semaphore>)> {
        let take_up = |s: &mut SemDiskState| {
            s.pending_up
                .pop_first()
                .map(|((track, _), gate)| (track, gate))
        };
        let take_down = |s: &mut SemDiskState| {
            s.pending_down
                .pop_first()
                .map(|((neg, _), gate)| (-neg, gate))
        };
        match self.dir {
            Dir::Up => take_up(self).or_else(|| {
                self.dir = Dir::Down;
                take_down(self)
            }),
            Dir::Down => take_down(self).or_else(|| {
                self.dir = Dir::Up;
                take_up(self)
            }),
        }
    }
}

impl DiskScheduler for SemaphoreDisk {
    fn seek(&self, ctx: &Ctx, track: i64, body: &mut dyn FnMut()) {
        request(ctx, SEEK, &[track]);
        let gate = {
            let mut s = self.state.lock();
            if !s.busy {
                s.note_service(track);
                None
            } else {
                let gate = Arc::new(Semaphore::strong("disk.gate", 0));
                let key = (joins_up(s.dir, s.head, track), ctx.fresh_ticket());
                match key {
                    (true, ticket) => s.pending_up.insert((track, ticket), Arc::clone(&gate)),
                    (false, ticket) => s.pending_down.insert((-track, ticket), Arc::clone(&gate)),
                };
                Some(gate)
            }
        };
        if let Some(gate) = gate {
            gate.p(ctx);
            // The releaser already recorded our service (head/dir/busy).
        }
        enter(ctx, SEEK, &[track]);
        body();
        exit(ctx, SEEK, &[track]);
        let granted = {
            let mut s = self.state.lock();
            s.busy = false;
            match s.grant_next() {
                Some((next_track, gate)) => {
                    s.note_service(next_track);
                    Some(gate)
                }
                None => None,
            }
        };
        if let Some(gate) = granted {
            gate.v(ctx);
        }
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Semaphore,
            vec![
                ImplUnit::new("head-mutex", "sem:busy-flag+private-gates"),
                ImplUnit::new("elevator-order", "sem:hand-built-pending-maps"),
            ],
            Directness::Workaround,
            Directness::Indirect,
            vec!["per-request private semaphores granted by the releaser".into()],
        )
    }
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

struct SerDiskState {
    head: i64,
    dir: Dir,
    pending_up: BTreeSet<(i64, u64)>,
    pending_down: BTreeSet<(i64, u64)>,
}

impl SerDiskState {
    /// The request SCAN would serve next, if any: `(is_up, track, ticket)`.
    fn scan_next(&self) -> Option<(bool, i64, u64)> {
        let up = self.pending_up.first().map(|&(t, k)| (true, t, k));
        let down = self.pending_down.first().map(|&(neg, k)| (false, -neg, k));
        match self.dir {
            Dir::Up => up.or(down),
            Dir::Down => down.or(up),
        }
    }
}

/// Serializer SCAN: two priority queues whose guards ask "am I the
/// request `scan_next` would pick, and is the arm free?" — the elevator
/// policy as data-driven guarantees, re-evaluated automatically.
pub struct SerializerDisk {
    ser: Arc<Serializer<SerDiskState>>,
    upq: QueueId,
    downq: QueueId,
    servicing: CrowdId,
}

impl SerializerDisk {
    /// Creates the scheduler with the head parked at track 0, sweeping up.
    pub fn new() -> Self {
        let ser = Arc::new(Serializer::new(
            "disk",
            SerDiskState {
                head: 0,
                dir: Dir::Up,
                pending_up: BTreeSet::new(),
                pending_down: BTreeSet::new(),
            },
        ));
        let upq = ser.queue("upsweep");
        let downq = ser.queue("downsweep");
        let servicing = ser.crowd("servicing");
        SerializerDisk {
            ser,
            upq,
            downq,
            servicing,
        }
    }
}

impl Default for SerializerDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskScheduler for SerializerDisk {
    fn seek(&self, ctx: &Ctx, track: i64, body: &mut dyn FnMut()) {
        request(ctx, SEEK, &[track]);
        let servicing = self.servicing;
        self.ser.enter(ctx, |sc| {
            let ticket = ctx.fresh_ticket();
            let goes_up = sc.state(|s| {
                // Route by the same rule as the other solutions; record
                // ourselves so guards can compute scan_next.
                let up = joins_up(s.dir, s.head, track);
                if up {
                    s.pending_up.insert((track, ticket));
                } else {
                    s.pending_down.insert((-track, ticket));
                }
                up
            });
            let queue = if goes_up { self.upq } else { self.downq };
            let priority = if goes_up { track } else { -track };
            sc.enqueue_priority(queue, priority, move |v| {
                v.crowd_is_empty(servicing)
                    && v.state().scan_next() == Some((goes_up, track, ticket))
            });
            sc.state(|s| {
                if goes_up {
                    s.pending_up.remove(&(track, ticket));
                    s.dir = Dir::Up;
                } else {
                    s.pending_down.remove(&(-track, ticket));
                    s.dir = Dir::Down;
                }
                s.head = track;
            });
            enter(ctx, SEEK, &[track]);
            sc.join_crowd(servicing, || {
                body();
            });
            exit(ctx, SEEK, &[track]);
        });
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::Serializer,
            vec![
                ImplUnit::new("head-mutex", "guard:servicing-crowd-empty"),
                ImplUnit::new(
                    "elevator-order",
                    "serializer:priority-queues+scan-next-guard",
                ),
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

struct PathDiskState {
    head: i64,
    dir: Dir,
    busy: bool,
    pending_up: BTreeMap<(i64, u64), Pid>,
    pending_down: BTreeMap<(i64, u64), Pid>,
}

/// Path-expression "solution": the paths can only say `path seek end`
/// (one seek at a time). The entire elevator policy is a synchronization
/// procedure — explicit pending maps and a hand-rolled wait queue outside
/// the mechanism — which is precisely the §5.1 finding that parameters
/// are inaccessible to paths.
pub struct PathDisk {
    paths: PathResource,
    state: Mutex<PathDiskState>,
    gate: WaitQueue,
}

impl PathDisk {
    /// Creates the scheduler with the head parked at track 0, sweeping up.
    pub fn new() -> Self {
        PathDisk {
            paths: PathResource::parse("disk", "path seek end").expect("static path source"),
            state: Mutex::new(PathDiskState {
                head: 0,
                dir: Dir::Up,
                busy: false,
                pending_up: BTreeMap::new(),
                pending_down: BTreeMap::new(),
            }),
            gate: WaitQueue::new("disk.admission"),
        }
    }
}

impl Default for PathDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskScheduler for PathDisk {
    fn seek(&self, ctx: &Ctx, track: i64, body: &mut dyn FnMut()) {
        request(ctx, SEEK, &[track]);
        let admitted = {
            let mut s = self.state.lock();
            if !s.busy {
                s.busy = true;
                if track > s.head {
                    s.dir = Dir::Up;
                } else if track < s.head {
                    s.dir = Dir::Down;
                }
                s.head = track;
                true
            } else {
                let ticket = ctx.fresh_ticket();
                if joins_up(s.dir, s.head, track) {
                    s.pending_up.insert((track, ticket), ctx.pid());
                } else {
                    s.pending_down.insert((-track, ticket), ctx.pid());
                }
                false
            }
        };
        if !admitted {
            self.gate.wait(ctx);
        }
        self.paths.perform(ctx, "seek", || {
            enter(ctx, SEEK, &[track]);
            body();
            exit(ctx, SEEK, &[track]);
        });
        let next = {
            let mut s = self.state.lock();
            s.busy = false;
            let grant = match s.dir {
                Dir::Up => s
                    .pending_up
                    .pop_first()
                    .map(|((t, _), pid)| (t, pid))
                    .or_else(|| {
                        s.dir = Dir::Down;
                        s.pending_down
                            .pop_first()
                            .map(|((neg, _), pid)| (-neg, pid))
                    }),
                Dir::Down => s
                    .pending_down
                    .pop_first()
                    .map(|((neg, _), pid)| (-neg, pid))
                    .or_else(|| {
                        s.dir = Dir::Up;
                        s.pending_up.pop_first().map(|((t, _), pid)| (t, pid))
                    }),
            };
            if let Some((t, pid)) = grant {
                s.busy = true;
                if t > s.head {
                    s.dir = Dir::Up;
                } else if t < s.head {
                    s.dir = Dir::Down;
                }
                s.head = t;
                Some(pid)
            } else {
                None
            }
        };
        if let Some(pid) = next {
            self.gate.wake_pid(ctx, pid);
        }
    }

    fn desc(&self) -> SolutionDesc {
        base_desc(
            MechanismId::PathV1,
            vec![
                ImplUnit::new("head-mutex", "path:seek-cycle"),
                ImplUnit::new("elevator-order", "syncproc:scan-admission-outside-paths"),
            ],
            Directness::Workaround,
            Directness::Indirect,
            vec!["elevator policy implemented entirely outside the path mechanism".into()],
        )
    }
}

/// Fresh instance of the solution for `mechanism`.
///
/// # Panics
///
/// Panics for [`MechanismId::PathV2`] (the numeric operator does not help
/// with parameters; predicates arrived only in Andler's later version).
pub fn make(mechanism: MechanismId) -> Arc<dyn DiskScheduler> {
    match mechanism {
        MechanismId::Semaphore => Arc::new(SemaphoreDisk::new()),
        MechanismId::Monitor => Arc::new(MonitorDisk::new()),
        MechanismId::Serializer => Arc::new(SerializerDisk::new()),
        MechanismId::PathV1 => Arc::new(PathDisk::new()),
        MechanismId::Csp => Arc::new(crate::csp::CspDisk::new()),
        MechanismId::PathV2 | MechanismId::PathV3 => {
            panic!("disk scheduler has no distinct path-v2/v3 solution")
        }
    }
}

/// The mechanisms with a disk-scheduler solution.
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
    use crate::drivers::{disk_sim, run};
    use bloom_core::checks::{check_all_served, check_elevator, check_exclusion, expect_clean};
    use bloom_core::events::extract;

    #[test]
    fn all_mechanisms_serve_in_elevator_order() {
        for mech in MECHANISMS {
            for (workload, sched) in [
                (1u64, None),
                (2, None),
                (3, Some(91)),
                (4, Some(92)),
                (5, Some(93)),
            ] {
                let report = run(disk_sim(mech, 4, 3, workload), sched)
                    .unwrap_or_else(|e| panic!("{mech} (workload {workload}): {e}"));
                let events = extract(&report.trace);
                expect_clean(
                    &check_elevator(&events, SEEK),
                    &format!("{mech} elevator order (workload {workload}, sched {sched:?})"),
                );
                expect_clean(
                    &check_exclusion(&events, &[(SEEK, SEEK)]),
                    &format!("{mech} one seek at a time"),
                );
                expect_clean(&check_all_served(&events), &format!("{mech} liveness"));
            }
        }
    }

    /// Scripted sweep: requests at 50, 10, 70 while the arm is busy at 30
    /// going up → service order 30, 50, 70, 10.
    #[test]
    fn scripted_sweep_matches_scan() {
        for mech in MECHANISMS {
            let mut sim = bloom_sim::Sim::new();
            let disk = make(mech);
            let d = Arc::clone(&disk);
            let order = Arc::new(Mutex::new(Vec::new()));
            let o = Arc::clone(&order);
            sim.spawn("first", move |ctx| {
                d.seek(ctx, 30, &mut || {
                    // Hold the arm while the others queue up.
                    for _ in 0..5 {
                        ctx.yield_now();
                    }
                });
                o.lock().push(30);
            });
            for (i, track) in [50i64, 10, 70].into_iter().enumerate() {
                let d = Arc::clone(&disk);
                let o = Arc::clone(&order);
                sim.spawn(&format!("req{i}"), move |ctx| {
                    ctx.yield_now(); // let "first" grab the arm
                    d.seek(ctx, track, &mut || {});
                    o.lock().push(track);
                });
            }
            sim.run().unwrap();
            assert_eq!(*order.lock(), vec![30, 50, 70, 10], "{mech} SCAN order");
        }
    }

    #[test]
    fn descriptions_attribute_elevator_and_mutex() {
        for mech in MECHANISMS {
            let d = make(mech).desc();
            assert!(d.constraints().contains("head-mutex"), "{mech}");
            assert!(d.constraints().contains("elevator-order"), "{mech}");
        }
        // The paper's finding: paths handle parameters only by workaround.
        assert_eq!(
            make(MechanismId::PathV1).desc().info_handling[&InfoType::RequestParameters],
            Directness::Workaround
        );
        assert_eq!(
            make(MechanismId::Monitor).desc().info_handling[&InfoType::RequestParameters],
            Directness::Direct
        );
    }
}
