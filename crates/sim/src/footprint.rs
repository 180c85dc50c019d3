//! Object-granular access footprints for the explorers' dependency-aware
//! equivalence prune.
//!
//! Every synchronization object (a semaphore, a monitor, a wait queue, …)
//! carries a stable [`ObjId`], mechanisms report *which* objects a quantum
//! read or wrote (see [`crate::Ctx::note_sync_obj`]), and the kernel
//! appends one record per dispatch to the run's [`QuantumLog`]. Two quanta
//! *conflict* when their footprints intersect on an object at least one
//! side wrote — writes conflict with anything, reads commute — and the
//! revisit prune reverses exactly the races the conflict relation names
//! (see `DESIGN.md` §2.10 and §2.14).
//!
//! [`crate::Ctx::note_sync`] remains the conservative fallback: it marks
//! the quantum as touching *everything* ([`Quantum::is_all`]), which
//! conflicts with every non-empty footprint. Over-marking is always safe —
//! it only costs pruning.
//!
//! The log is flat. The first time a run marks an object, the object gets
//! the run's next *slot*, a small dense integer; a quantum's footprint is
//! a range of `(slot, access)` pairs in one arena, its contested ready
//! list a range in another, and closing it pushes one fixed-size record.
//! Nothing allocates per mark, per quantum or per ready list once the
//! arenas are reserved, and the race planner turns each footprint into
//! word-sized bitsets over the slots. Slot numbers never leave the run:
//! the public view names objects by [`ObjId`].

use crate::types::Pid;
use std::fmt;
use std::sync::Arc;

/// Stable identity of one synchronization object.
///
/// An `ObjId` is a kind-prefixed name (`"semaphore:forks0"`): mechanisms
/// allocate one at construction from their diagnostic name, so the id of
/// an object is identical across the repeated runs of an exploration —
/// which is what lets a race seen in one run name a branch another run
/// explores. Two objects with the same kind and name are deliberately the
/// *same* object: a collision only merges footprints, which is
/// conservative, never unsound.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(Arc<str>);

impl ObjId {
    /// An object id for a mechanism instance: `kind` is the mechanism
    /// family (used as the metrics key by
    /// [`crate::Ctx::note_sync_obj_op`]), `name` its diagnostic name.
    pub fn new(kind: &str, name: &str) -> ObjId {
        ObjId(Arc::from(format!("{kind}:{name}")))
    }

    /// A kernel-internal pseudo-object (the global ticket dispenser, the
    /// user-event trace, a process's park slot). Pseudo-objects model
    /// cross-mechanism ordering the conflict relation must not lose.
    pub(crate) fn pseudo(name: &str) -> ObjId {
        ObjId(Arc::from(name))
    }

    /// The full `kind:name` string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The kind prefix (everything before the first `:`), used as the
    /// per-mechanism metrics key.
    pub fn kind(&self) -> &str {
        self.0.split(':').next().unwrap_or(&self.0)
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// How a quantum touched an object.
///
/// Reads commute with reads: two quanta that only *read* the same object
/// leave it — and each other's behavior — unchanged in either order.
/// A write conflicts with any other access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    /// The object's state was read but not changed.
    Read,
    /// The object's state was (or may have been) changed.
    Write,
}

/// One object of a run's slot table.
#[derive(Debug, Clone)]
struct Slot {
    obj: ObjId,
    /// Where this slot's pair of the *open* quantum sits in
    /// [`QuantumLog::marks`], if it has one there (stale otherwise: checked
    /// against the open quantum's range and the pair's own slot).
    open_at: u32,
}

/// One closed quantum: fixed size, pointing into the log's arenas.
#[derive(Debug, Clone, Copy)]
struct Record {
    pid: Pid,
    /// `marks[marks_from..marks_to]` is the footprint (empty when `all`).
    marks_from: u32,
    marks_to: u32,
    /// `ready[ready_from..ready_from + ready_len]` is the contested ready
    /// list; `contested` is false for forced dispatches and bookkeeping.
    ready_from: u32,
    ready_len: u32,
    contested: bool,
    /// The conservative "touches everything" footprint.
    all: bool,
}

/// Capacity hints of a recorded log, sized so that the explorers' runs
/// (a few dozen quanta over a few dozen objects) never grow an arena.
const RECORDS_CAPACITY: usize = 64;
const MARKS_CAPACITY: usize = 256;
const READY_CAPACITY: usize = 256;
const SLOTS_CAPACITY: usize = 32;

/// The per-dispatch footprint log of one run ([`crate::SimReport::quanta`]).
///
/// Recorded only when [`crate::SimConfig::record_quanta`] is on (the
/// revisit prune forces it on). One record per dispatch, forced and
/// contested, in dispatch order; records whose [`Quantum::ready`] is
/// `Some` align 1:1, in order, with the `Sched`-kind entries of
/// [`crate::SimReport::decisions`]. When the run was not prune-safe
/// (timers, faults, clock reads, watchdog — see
/// [`crate::SimReport::prune_safe`]), every footprint reads as
/// [`Quantum::is_all`], so a stale footprint can never license a prune.
#[derive(Debug, Clone, Default)]
pub struct QuantumLog {
    /// The run's objects by slot, in first-mark order.
    slots: Vec<Slot>,
    records: Vec<Record>,
    /// `(slot, access)` pairs, each quantum's a contiguous range with at
    /// most one pair per slot holding the strongest access.
    marks: Vec<(u32, Access)>,
    /// Contested ready lists, each a contiguous range in enqueue order.
    ready: Vec<Pid>,
    /// Where the open quantum's pairs begin in `marks`.
    open_from: u32,
    /// The open quantum's ready-list range, if its dispatch was contested.
    open_ready: Option<(u32, u32)>,
}

impl QuantumLog {
    /// How many quanta the log holds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no quantum (it was not recorded).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `i`-th quantum in dispatch order.
    pub fn get(&self, i: usize) -> Option<Quantum<'_>> {
        self.records.get(i).map(|rec| Quantum { log: self, rec })
    }

    /// Every quantum in dispatch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Quantum<'_>> + '_ {
        self.records.iter().map(|rec| Quantum { log: self, rec })
    }

    /// Reserves every arena once, when recording is turned on.
    pub(crate) fn reserve(&mut self) {
        self.slots.reserve(SLOTS_CAPACITY);
        self.records.reserve(RECORDS_CAPACITY);
        self.marks.reserve(MARKS_CAPACITY);
        self.ready.reserve(READY_CAPACITY);
    }

    /// Opens the next quantum: drops the pairs marked since the last
    /// closed quantum (nothing reads them) and keeps a contested
    /// dispatch's ready list.
    pub(crate) fn open(&mut self, ready: Option<&[Pid]>) {
        let closed = self.records.last().map_or(0, |r| r.marks_to);
        self.marks.truncate(closed as usize);
        self.open_from = closed;
        self.open_ready = ready.map(|pids| {
            let from = self.ready.len() as u32;
            self.ready.extend_from_slice(pids);
            (from, pids.len() as u32)
        });
    }

    /// Adds an access to the open quantum, keeping the strongest access
    /// per object (a write is never downgraded by a later read).
    pub(crate) fn mark(&mut self, obj: &ObjId, access: Access) {
        let slot = self.slot_of(obj);
        let at = self.slots[slot as usize].open_at as usize;
        if at >= self.open_from as usize && self.marks.get(at).is_some_and(|m| m.0 == slot) {
            if access == Access::Write {
                self.marks[at].1 = Access::Write;
            }
            return;
        }
        self.slots[slot as usize].open_at = self.marks.len() as u32;
        self.marks.push((slot, access));
    }

    /// The run's slot for `obj`, assigned on first sight. Pointer
    /// comparison finds every clone of a mechanism's id; the name
    /// comparison behind it keeps same-named objects one object.
    fn slot_of(&mut self, obj: &ObjId) -> u32 {
        let found = self
            .slots
            .iter()
            .position(|s| Arc::ptr_eq(&s.obj.0, &obj.0))
            .or_else(|| self.slots.iter().position(|s| s.obj == *obj));
        match found {
            Some(slot) => slot as u32,
            None => {
                self.slots.push(Slot {
                    obj: obj.clone(),
                    open_at: u32::MAX,
                });
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Closes the open quantum as `pid`'s; `all` records the conservative
    /// footprint instead of the marked pairs.
    pub(crate) fn close(&mut self, pid: Pid, all: bool) {
        if all {
            self.marks.truncate(self.open_from as usize);
        }
        let ready = self.open_ready.take();
        let (ready_from, ready_len) = ready.unwrap_or((0, 0));
        self.records.push(Record {
            pid,
            marks_from: self.open_from,
            marks_to: self.marks.len() as u32,
            ready_from,
            ready_len,
            contested: ready.is_some(),
            all,
        });
        self.open_from = self.marks.len() as u32;
    }

    /// Widens every footprint to the conservative one (a run that was not
    /// prune-safe).
    pub(crate) fn widen_all(&mut self) {
        for rec in &mut self.records {
            rec.all = true;
            rec.marks_to = rec.marks_from;
        }
    }

    /// How many objects the run marked: slots are `0..slot_count()`.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The object of a slot.
    pub(crate) fn obj(&self, slot: u32) -> &ObjId {
        &self.slots[slot as usize].obj
    }

    /// How many pairs the open quantum has marked so far.
    #[cfg(test)]
    pub(crate) fn open_marks(&self) -> usize {
        self.marks.len() - self.open_from as usize
    }
}

/// One quantum of a [`QuantumLog`]: who ran, from which ready list, and
/// which objects it touched.
#[derive(Clone, Copy)]
pub struct Quantum<'a> {
    log: &'a QuantumLog,
    rec: &'a Record,
}

impl<'a> Quantum<'a> {
    /// The dispatched process.
    pub fn pid(&self) -> Pid {
        self.rec.pid
    }

    /// For a contested dispatch: the ready list the policy chose from, in
    /// enqueue order (index `c` is the process sibling choice `c` would
    /// dispatch). `None` for forced dispatches and unwind bookkeeping.
    pub fn ready(&self) -> Option<&'a [Pid]> {
        let from = self.rec.ready_from as usize;
        self.rec
            .contested
            .then(|| &self.log.ready[from..from + self.rec.ready_len as usize])
    }

    /// Whether this is the conservative "touches everything" footprint
    /// ([`crate::Ctx::note_sync`], or a run that was not prune-safe). It
    /// conflicts with every non-empty footprint, but commutes with an
    /// empty one, which touches nothing at all.
    pub fn is_all(&self) -> bool {
        self.rec.all
    }

    /// Whether the quantum touched nothing (a stutter).
    pub fn is_empty(&self) -> bool {
        !self.rec.all && self.rec.marks_from == self.rec.marks_to
    }

    /// The objects the quantum accessed, each once with the strongest
    /// access performed, in first-mark order; empty when
    /// [`Quantum::is_all`].
    pub fn accesses(&self) -> impl Iterator<Item = (&'a ObjId, Access)> + 'a {
        let log = self.log;
        self.slot_marks()
            .iter()
            .map(move |&(slot, access)| (log.obj(slot), access))
    }

    /// The `(slot, access)` pairs of [`Quantum::accesses`].
    pub(crate) fn slot_marks(&self) -> &'a [(u32, Access)] {
        &self.log.marks[self.rec.marks_from as usize..self.rec.marks_to as usize]
    }

    /// The object that makes the two quanta conflict, if any: the least
    /// by name of the objects both touched with at least one write, the
    /// least object of the other side when one side is
    /// [`Quantum::is_all`], or `"*"` when both are. `None` means the
    /// quanta are independent — executing them in either order yields the
    /// same mechanism state and the same user-event trace. Both quanta
    /// must come from the same log.
    pub fn conflict_with(&self, other: &Quantum<'a>) -> Option<&'a str> {
        let slot = self.conflict_slot(other)?;
        Some(slot.map_or("*", |slot| self.log.obj(slot).as_str()))
    }

    /// [`Quantum::conflict_with`] by slot: `Some(None)` is `"*"`.
    pub(crate) fn conflict_slot(&self, other: &Quantum<'a>) -> Option<Option<u32>> {
        let log = self.log;
        let mut least: Option<u32> = None;
        let mut offer = |slot: u32| {
            if least.is_none_or(|l| log.obj(slot).as_str() < log.obj(l).as_str()) {
                least = Some(slot);
            }
        };
        match (self.is_all(), other.is_all()) {
            (true, true) => return Some(None),
            (true, false) => other.slot_marks().iter().for_each(|&(slot, _)| offer(slot)),
            (false, true) => self.slot_marks().iter().for_each(|&(slot, _)| offer(slot)),
            (false, false) => {
                for &(slot, access) in self.slot_marks() {
                    let clash = other.slot_marks().iter().any(|&(s, a)| {
                        s == slot && (access == Access::Write || a == Access::Write)
                    });
                    if clash {
                        offer(slot);
                    }
                }
            }
        }
        least.map(Some)
    }

    /// Whether the two quanta conflict (see [`Quantum::conflict_with`]).
    pub fn conflicts(&self, other: &Quantum<'a>) -> bool {
        self.conflict_with(other).is_some()
    }
}

impl fmt::Debug for Quantum<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Quantum");
        s.field("pid", &self.pid()).field("ready", &self.ready());
        if self.is_all() {
            s.field("footprint", &"*");
        } else {
            s.field("footprint", &self.accesses().collect::<Vec<_>>());
        }
        s.finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A hand-built quantum: `(pid, footprint, ready)`, where a `None`
    /// footprint is the conservative one.
    pub(crate) type TestQuantum<'a> = (u32, Option<&'a [(&'a str, Access)]>, Option<&'a [u32]>);

    /// A log of hand-built quanta.
    pub(crate) fn log_of(quanta: &[TestQuantum<'_>]) -> QuantumLog {
        let mut log = QuantumLog::default();
        for &(pid, footprint, ready) in quanta {
            let ready: Option<Vec<Pid>> = ready.map(|r| r.iter().map(|&p| Pid(p)).collect());
            log.open(ready.as_deref());
            for &(name, access) in footprint.unwrap_or_default() {
                log.mark(&ObjId::pseudo(name), access);
            }
            log.close(Pid(pid), footprint.is_none());
        }
        log
    }

    #[test]
    fn reads_commute_writes_conflict() {
        let log = log_of(&[
            (0, Some(&[("a", Access::Read)]), None),
            (1, Some(&[("a", Access::Write)]), None),
            (2, Some(&[("b", Access::Write)]), None),
        ]);
        let (r, w, other) = (
            log.get(0).unwrap(),
            log.get(1).unwrap(),
            log.get(2).unwrap(),
        );
        assert!(!r.conflicts(&r), "read/read commutes");
        assert!(r.conflicts(&w), "read/write conflicts");
        assert!(w.conflicts(&w), "write/write conflicts");
        assert!(!w.conflicts(&other), "distinct objects commute");
        assert_eq!(w.conflict_with(&w), Some("a"));
    }

    #[test]
    fn all_conflicts_with_everything_but_stutters() {
        let log = log_of(&[
            (0, Some(&[("b", Access::Read), ("a", Access::Read)]), None),
            (1, None, None),
            (2, Some(&[]), None),
            (3, None, None),
        ]);
        let [w, all, empty, all2] = [0, 1, 2, 3].map(|i| log.get(i).unwrap());
        assert!(all.conflicts(&w));
        assert!(w.conflicts(&all));
        assert_eq!(all.conflict_with(&w), Some("a"), "the least object by name");
        assert_eq!(all.conflict_with(&all2), Some("*"));
        assert!(!all.conflicts(&empty), "stutters commute with anything");
        assert!(!empty.conflicts(&empty));
        assert!(empty.is_empty() && !all.is_empty());
    }

    #[test]
    fn the_conflicting_object_is_the_least_by_name() {
        let log = log_of(&[
            (
                0,
                Some(&[
                    ("c", Access::Write),
                    ("b", Access::Read),
                    ("a", Access::Read),
                ]),
                None,
            ),
            (
                1,
                Some(&[
                    ("a", Access::Read),
                    ("c", Access::Read),
                    ("b", Access::Write),
                ]),
                None,
            ),
        ]);
        let (t, u) = (log.get(0).unwrap(), log.get(1).unwrap());
        assert_eq!(t.conflict_with(&u), Some("b"), "a is read on both sides");
        assert_eq!(u.conflict_with(&t), Some("b"));
    }

    #[test]
    fn merge_keeps_strongest_access() {
        let mut log = QuantumLog::default();
        log.open(Some(&[Pid(0), Pid(1)]));
        let a = ObjId::pseudo("a");
        log.mark(&a, Access::Read);
        log.mark(&a, Access::Write);
        // A second allocation with the same name is the same object.
        log.mark(&ObjId::pseudo("a"), Access::Read);
        log.close(Pid(0), false);
        log.open(None);
        log.mark(&a, Access::Read);
        log.close(Pid(1), false);
        let q: Vec<_> = log
            .iter()
            .map(|q| q.accesses().collect::<Vec<_>>())
            .collect();
        assert_eq!(q, [vec![(&a, Access::Write)], vec![(&a, Access::Read)]]);
        assert_eq!(log.slot_count(), 1, "one object, one slot");
        assert_eq!(log.get(0).unwrap().ready(), Some(&[Pid(0), Pid(1)][..]));
        assert_eq!(log.get(1).unwrap().ready(), None);
    }

    #[test]
    fn marks_after_a_close_are_dropped_by_the_next_open() {
        let mut log = QuantumLog::default();
        let a = ObjId::pseudo("a");
        log.open(None);
        log.close(Pid(0), false);
        log.mark(&a, Access::Write); // outside any quantum
        log.open(None);
        log.close(Pid(1), false);
        assert!(log.iter().all(|q| q.is_empty()));
        log.widen_all();
        assert!(log.iter().all(|q| q.is_all() && q.accesses().count() == 0));
    }

    #[test]
    fn obj_id_kind_and_display() {
        let id = ObjId::new("semaphore", "forks0");
        assert_eq!(id.kind(), "semaphore");
        assert_eq!(id.as_str(), "semaphore:forks0");
        assert_eq!(id.to_string(), "semaphore:forks0");
        assert_eq!(ObjId::pseudo("ticket").kind(), "ticket");
    }
}
