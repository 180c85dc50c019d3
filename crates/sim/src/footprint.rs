//! Object-granular access footprints for the explorers' dependency-aware
//! equivalence prune.
//!
//! Every synchronization object (a semaphore, a monitor, a wait queue, …)
//! carries a stable [`ObjId`], mechanisms report *which* objects a quantum
//! read or wrote (see [`crate::Ctx::note_sync_obj`]), and the kernel
//! records one [`QuantumRecord`] per dispatch. Two quanta *conflict* when
//! their footprints intersect on an object at least one side wrote —
//! writes conflict with anything, reads commute — and the revisit prune
//! reverses exactly the races the conflict relation names (see
//! `DESIGN.md` §2.10 and §2.14).
//!
//! [`crate::Ctx::note_sync`] remains the conservative fallback: it marks
//! the quantum as touching *everything* ([`Footprint::All`]), which
//! conflicts with every non-empty footprint. Over-marking is always safe —
//! it only costs pruning.

use crate::types::Pid;
use std::collections::BTreeMap;
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

/// The set of objects one quantum accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Footprint {
    /// Exactly these objects, each with the strongest access performed.
    /// An empty map is the footprint of a stutter that touched nothing.
    Objs(BTreeMap<ObjId, Access>),
    /// The conservative fallback ([`crate::Ctx::note_sync`]): the quantum
    /// may have touched anything. Conflicts with every non-empty
    /// footprint (but commutes with an empty one, which touches nothing
    /// at all).
    All,
}

impl Default for Footprint {
    fn default() -> Self {
        Footprint::Objs(BTreeMap::new())
    }
}

impl Footprint {
    /// Whether this is the conservative "touches everything" footprint.
    pub fn is_all(&self) -> bool {
        matches!(self, Footprint::All)
    }

    /// Whether the quantum touched nothing (a stutter).
    pub fn is_empty(&self) -> bool {
        match self {
            Footprint::Objs(objs) => objs.is_empty(),
            Footprint::All => false,
        }
    }

    /// The object that makes the two footprints conflict, if any: an
    /// object both quanta touched with at least one write (or `"*"` when
    /// both sides are [`Footprint::All`]). `None` means the quanta are
    /// independent — executing them in either order yields the same
    /// mechanism state and the same user-event trace.
    pub fn conflict_with<'a>(&'a self, other: &'a Footprint) -> Option<&'a str> {
        match (self, other) {
            (Footprint::All, Footprint::All) => Some("*"),
            (Footprint::All, Footprint::Objs(objs)) | (Footprint::Objs(objs), Footprint::All) => {
                objs.keys().next().map(|o| o.as_str())
            }
            (Footprint::Objs(a), Footprint::Objs(b)) => {
                let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                for (obj, access) in small {
                    if let Some(other_access) = big.get(obj) {
                        if *access == Access::Write || *other_access == Access::Write {
                            return Some(obj.as_str());
                        }
                    }
                }
                None
            }
        }
    }

    /// Whether the two footprints conflict (see
    /// [`Footprint::conflict_with`]).
    pub fn conflicts(&self, other: &Footprint) -> bool {
        self.conflict_with(other).is_some()
    }
}

/// Adds an access to a footprint map, keeping the strongest access per
/// object (a write is never downgraded by a later read).
pub(crate) fn merge_access(objs: &mut BTreeMap<ObjId, Access>, obj: ObjId, access: Access) {
    let slot = objs.entry(obj).or_insert(access);
    if access == Access::Write {
        *slot = Access::Write;
    }
}

/// What one dispatch of the kernel did, as far as the dependency
/// analysis is concerned. Recorded for *every* dispatch (forced and
/// contested) when [`crate::SimConfig::record_quanta`] is on; the
/// explorers consume the log via [`crate::SimReport::quanta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantumRecord {
    /// The dispatched process.
    pub pid: Pid,
    /// The objects the quantum accessed. Forced to [`Footprint::All`] for
    /// every quantum of a run that was not prune-safe (timers, faults,
    /// watchdog — see [`crate::SimReport::prune_safe`]), so a stale
    /// footprint can never license a prune.
    pub footprint: Footprint,
    /// For a contested dispatch: the ready list the policy chose from, in
    /// enqueue order (index `c` is the process sibling choice `c` would
    /// dispatch). `None` for forced dispatches and unwind bookkeeping.
    /// Records with `Some` align 1:1, in order, with
    /// [`crate::SimReport::decisions`].
    pub ready: Option<Vec<Pid>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objs(entries: &[(&str, Access)]) -> Footprint {
        let mut map = BTreeMap::new();
        for (name, access) in entries {
            merge_access(&mut map, ObjId::pseudo(name), *access);
        }
        Footprint::Objs(map)
    }

    #[test]
    fn reads_commute_writes_conflict() {
        let r = objs(&[("a", Access::Read)]);
        let w = objs(&[("a", Access::Write)]);
        let other = objs(&[("b", Access::Write)]);
        assert!(!r.conflicts(&r), "read/read commutes");
        assert!(r.conflicts(&w), "read/write conflicts");
        assert!(w.conflicts(&w), "write/write conflicts");
        assert!(!w.conflicts(&other), "distinct objects commute");
        assert_eq!(w.conflict_with(&w), Some("a"));
    }

    #[test]
    fn all_conflicts_with_everything_but_stutters() {
        let w = objs(&[("a", Access::Write)]);
        let empty = Footprint::default();
        assert!(Footprint::All.conflicts(&w));
        assert!(w.conflicts(&Footprint::All));
        assert!(Footprint::All.conflicts(&Footprint::All));
        assert!(
            !Footprint::All.conflicts(&empty),
            "stutters commute with anything"
        );
        assert!(!empty.conflicts(&empty));
    }

    #[test]
    fn merge_keeps_strongest_access() {
        let mut map = BTreeMap::new();
        merge_access(&mut map, ObjId::pseudo("a"), Access::Read);
        merge_access(&mut map, ObjId::pseudo("a"), Access::Write);
        merge_access(&mut map, ObjId::pseudo("a"), Access::Read);
        assert_eq!(map[&ObjId::pseudo("a")], Access::Write);
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
