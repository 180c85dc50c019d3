//! Constraint-independence (additivity) analysis (paper §4.2, §5.1.2).
//!
//! The paper's ease-of-use requirement: complex schemes are easy to build
//! and modify only if each constraint can be implemented without regard to
//! the others. Its test: compare solutions to *similar* problems — ones
//! sharing some constraints and differing in others — and check that the
//! shared constraints are implemented identically, and that changing one
//! constraint does not force rewriting the rest.
//!
//! A solution is described as a set of [`ImplUnit`]s — named implementation
//! components (a path declaration, a guard closure, a condition variable
//! protocol) each attributed to the constraint it realizes. Two solutions'
//! shared constraint is *independently implemented* when both attribute
//! exactly the same components to it.

use crate::profile::{Directness, MechanismId};
use crate::taxonomy::{InfoType, ProblemId};
use std::collections::{BTreeMap, BTreeSet};

/// One implementation component of a solution, attributed to a constraint.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ImplUnit {
    /// The constraint (by catalog name) this component realizes.
    pub constraint: String,
    /// Identifier of the component, stable across solutions when the code
    /// artifact is literally the same (e.g. `path:{requestread},requestwrite`
    /// or `guard:writers-crowd-empty`).
    pub component: String,
}

impl ImplUnit {
    /// Convenience constructor.
    pub fn new(constraint: &str, component: &str) -> Self {
        ImplUnit {
            constraint: constraint.to_string(),
            component: component.to_string(),
        }
    }
}

/// Metadata describing one (problem, mechanism) solution.
#[derive(Debug, Clone)]
pub struct SolutionDesc {
    /// Which problem is solved.
    pub problem: ProblemId,
    /// With which mechanism.
    pub mechanism: MechanismId,
    /// The solution's implementation components, attributed to constraints.
    pub units: Vec<ImplUnit>,
    /// How the solution accesses each info type it needs.
    pub info_handling: BTreeMap<InfoType, Directness>,
    /// Names of workarounds employed (e.g. the synchronization procedures
    /// of the paper's Figure 1).
    pub workarounds: Vec<String>,
}

impl SolutionDesc {
    /// Components attributed to `constraint`.
    pub fn components_of(&self, constraint: &str) -> BTreeSet<&str> {
        self.units
            .iter()
            .filter(|u| u.constraint == constraint)
            .map(|u| u.component.as_str())
            .collect()
    }

    /// Constraint names this solution implements.
    pub fn constraints(&self) -> BTreeSet<&str> {
        self.units.iter().map(|u| u.constraint.as_str()).collect()
    }
}

/// Result of comparing two solutions that share constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct IndependenceReport {
    /// Constraints present in both solutions.
    pub shared: Vec<String>,
    /// Shared constraints implemented by identical component sets.
    pub preserved: Vec<String>,
    /// Shared constraints whose implementation differs between the two.
    pub disturbed: Vec<String>,
    /// `preserved / shared`, in `[0, 1]`; `None` when nothing is shared.
    pub score: Option<f64>,
}

/// Compares how the constraints shared by two solutions are implemented.
pub fn independence(a: &SolutionDesc, b: &SolutionDesc) -> IndependenceReport {
    let shared: Vec<String> = a
        .constraints()
        .intersection(&b.constraints())
        .map(|s| s.to_string())
        .collect();
    let mut preserved = Vec::new();
    let mut disturbed = Vec::new();
    for c in &shared {
        if a.components_of(c) == b.components_of(c) {
            preserved.push(c.clone());
        } else {
            disturbed.push(c.clone());
        }
    }
    let score = if shared.is_empty() {
        None
    } else {
        Some(preserved.len() as f64 / shared.len() as f64)
    };
    IndependenceReport {
        shared,
        preserved,
        disturbed,
        score,
    }
}

/// The cost of modifying solution `a` into solution `b`: the fraction of
/// the union of components that must be added, removed, or re-attributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModificationCost {
    /// Components only in `a` (to remove) plus only in `b` (to add).
    pub changed: usize,
    /// Size of the union of both component sets.
    pub total: usize,
}

impl ModificationCost {
    /// `changed / total` in `[0, 1]`; 0 when both solutions are empty.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.changed as f64 / self.total as f64
        }
    }
}

/// Computes the modification cost between two solutions.
pub fn modification_cost(a: &SolutionDesc, b: &SolutionDesc) -> ModificationCost {
    let ua: BTreeSet<&ImplUnit> = a.units.iter().collect();
    let ub: BTreeSet<&ImplUnit> = b.units.iter().collect();
    let changed = ua.symmetric_difference(&ub).count();
    let total = ua.union(&ub).count();
    ModificationCost { changed, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(problem: ProblemId, units: &[(&str, &str)]) -> SolutionDesc {
        SolutionDesc {
            problem,
            mechanism: MechanismId::Monitor,
            units: units.iter().map(|(c, k)| ImplUnit::new(c, k)).collect(),
            info_handling: BTreeMap::new(),
            workarounds: Vec::new(),
        }
    }

    #[test]
    fn identical_shared_constraints_score_one() {
        let a = desc(
            ProblemId::ReadersPriorityDb,
            &[
                ("rw-exclusion", "cond-protocol"),
                ("readers-priority", "reader-check"),
            ],
        );
        let b = desc(
            ProblemId::WritersPriorityDb,
            &[
                ("rw-exclusion", "cond-protocol"),
                ("writers-priority", "writer-check"),
            ],
        );
        let r = independence(&a, &b);
        assert_eq!(r.shared, vec!["rw-exclusion".to_string()]);
        assert_eq!(r.preserved, vec!["rw-exclusion".to_string()]);
        assert!(r.disturbed.is_empty());
        assert_eq!(r.score, Some(1.0));
    }

    #[test]
    fn differing_shared_constraint_scores_zero() {
        // The paper's path-expression finding: the exclusion path differs
        // between the readers-priority and writers-priority solutions.
        let a = desc(
            ProblemId::ReadersPriorityDb,
            &[("rw-exclusion", "path:{read},(openwrite;write)")],
        );
        let b = desc(
            ProblemId::WritersPriorityDb,
            &[("rw-exclusion", "path:{openread;read},write")],
        );
        let r = independence(&a, &b);
        assert_eq!(r.score, Some(0.0));
        assert_eq!(r.disturbed, vec!["rw-exclusion".to_string()]);
    }

    #[test]
    fn no_shared_constraints_scores_none() {
        let a = desc(ProblemId::BoundedBuffer, &[("not-full", "x")]);
        let b = desc(ProblemId::AlarmClock, &[("alarm-wakeup", "y")]);
        assert_eq!(independence(&a, &b).score, None);
    }

    #[test]
    fn constraint_with_multiple_components_compares_as_a_set() {
        let a = desc(
            ProblemId::FcfsResource,
            &[("fcfs-order", "q1"), ("fcfs-order", "q2")],
        );
        let b = desc(
            ProblemId::FcfsResource,
            &[("fcfs-order", "q2"), ("fcfs-order", "q1")],
        );
        assert_eq!(independence(&a, &b).score, Some(1.0));
        let c = desc(ProblemId::FcfsResource, &[("fcfs-order", "q1")]);
        assert_eq!(independence(&a, &c).score, Some(0.0));
    }

    #[test]
    fn modification_cost_counts_symmetric_difference() {
        let a = desc(
            ProblemId::ReadersPriorityDb,
            &[("x", "shared"), ("p", "a-only")],
        );
        let b = desc(
            ProblemId::WritersPriorityDb,
            &[("x", "shared"), ("q", "b-only")],
        );
        let m = modification_cost(&a, &b);
        assert_eq!(m.changed, 2);
        assert_eq!(m.total, 3);
        assert!((m.fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn modification_cost_of_identical_solutions_is_zero() {
        let a = desc(ProblemId::BoundedBuffer, &[("not-full", "cond")]);
        let m = modification_cost(&a, &a.clone());
        assert_eq!(m.changed, 0);
        assert_eq!(m.fraction(), 0.0);
    }
}
