//! The solution registry: every (problem, mechanism) solution's metadata,
//! and the *derived* expressive-power profile computed from it.
//!
//! The paper encodes its findings as prose; we encode them twice — once as
//! [`bloom_core::paper_profiles`] (the claimed ratings) and once as the
//! metadata attached to real, tested solutions here. The workspace test
//! `derived_profiles_match_paper` closes the loop: the ratings *derived*
//! from the implementations must agree with the paper's claims wherever a
//! solution exercises the information type.

use crate::suite::cells;
use bloom_core::{Directness, InfoType, MechanismId, SolutionDesc};
use std::collections::BTreeMap;

/// Metadata for every solution in the suite, in [`cells`] order.
pub fn all_descs() -> Vec<SolutionDesc> {
    cells().iter().map(|cell| cell.desc()).collect()
}

/// Metadata for one mechanism's solutions.
pub fn descs_for(mechanism: MechanismId) -> Vec<SolutionDesc> {
    all_descs()
        .into_iter()
        .filter(|d| d.mechanism == mechanism)
        .collect()
}

/// The expressive-power ratings *derived* from the implementations: for
/// each information type, the worst directness any of the mechanism's
/// solutions needed (a mechanism has "a straightforward means" only if
/// every canonical problem finds one). Info types no solution exercises
/// are absent.
pub fn derived_ratings(mechanism: MechanismId) -> BTreeMap<InfoType, Directness> {
    let mut ratings: BTreeMap<InfoType, Directness> = BTreeMap::new();
    for desc in descs_for(mechanism) {
        for (&info, &rating) in &desc.info_handling {
            let slot = ratings.entry(info).or_insert(rating);
            if rating > *slot {
                *slot = rating;
            }
        }
    }
    ratings
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_core::{paper_profile, ProblemId};

    #[test]
    fn registry_covers_every_catalog_problem() {
        let descs = all_descs();
        for problem in ProblemId::ALL {
            let n = descs.iter().filter(|d| d.problem == problem).count();
            assert!(n >= 4, "{problem}: only {n} solutions registered");
        }
        // 5+5+5 + 15 + 1 (path-v3) + 5 + 5 solutions in total.
        assert_eq!(descs.len(), 41);
    }

    #[test]
    fn derived_profiles_match_paper() {
        for mech in MechanismId::ALL {
            let paper = paper_profile(mech);
            for (info, derived) in derived_ratings(mech) {
                assert_eq!(
                    derived,
                    paper.rating(info),
                    "{mech}/{info}: implementation-derived rating disagrees with the \
                     paper-profile claim"
                );
            }
        }
    }

    #[test]
    fn every_mechanism_exercises_most_info_types() {
        for mech in [
            MechanismId::Semaphore,
            MechanismId::Monitor,
            MechanismId::Serializer,
        ] {
            let ratings = derived_ratings(mech);
            assert!(
                ratings.len() >= 5,
                "{mech}: only {} info types exercised by its solutions",
                ratings.len()
            );
        }
    }

    #[test]
    fn workarounds_concentrate_where_the_paper_says() {
        // Paths: every parameter-dependent problem needed a workaround.
        let path_descs = descs_for(MechanismId::PathV1);
        for problem in [ProblemId::DiskScheduler, ProblemId::AlarmClock] {
            let d = path_descs
                .iter()
                .find(|d| d.problem == problem)
                .expect("registered");
            assert!(
                !d.workarounds.is_empty(),
                "{problem}: path solution must record workaround"
            );
        }
        // Monitors and serializers: no workarounds for those same problems.
        for mech in [MechanismId::Monitor, MechanismId::Serializer] {
            for problem in [ProblemId::DiskScheduler, ProblemId::AlarmClock] {
                let d = descs_for(mech)
                    .into_iter()
                    .find(|d| d.problem == problem)
                    .expect("registered");
                assert!(
                    d.workarounds.is_empty(),
                    "{mech}/{problem}: unexpected workaround"
                );
            }
        }
    }
}
