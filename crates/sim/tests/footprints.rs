//! The footprint log is recorded on request: the prune mode asks for it,
//! and so may a caller; a run nobody asked for it pays nothing.

#![deny(deprecated)]

use bloom_sim::{Access, ExploreConfig, ObjId, PruneMode, Sim};

/// Three processes that each write an object of their own, then touch a
/// shared one (`p0` writes it, the others read it) and emit: independent
/// enough for the prune to skip branches, conflicting enough to branch.
/// `record` is what the setup asks of the footprint log (`None`: nothing).
fn scenario(record: Option<bool>) -> Sim {
    let mut sim = Sim::new();
    if let Some(on) = record {
        sim.set_record_quanta(on);
    }
    let shared = ObjId::new("cell", "shared");
    for p in 0..3 {
        let own = ObjId::new("cell", &format!("own{p}"));
        let shared = shared.clone();
        sim.spawn(&format!("p{p}"), move |ctx| {
            ctx.note_sync_obj(&own, Access::Write);
            ctx.yield_now();
            let access = if p == 0 { Access::Write } else { Access::Read };
            ctx.note_sync_obj(&shared, access);
            ctx.emit("done", &[p]);
        });
    }
    sim
}

#[test]
fn a_default_run_records_no_footprints() {
    let report = scenario(None).run().expect("the processes finish");
    assert_eq!(report.steps, 6);
    assert!(report.quanta.is_empty());
}

#[test]
fn a_run_that_asks_records_one_footprint_per_dispatch() {
    let report = scenario(Some(true)).run().expect("the processes finish");
    assert_eq!(report.quanta.len() as u64, report.steps);
    let contested = report.quanta.iter().filter(|q| q.ready.is_some());
    assert_eq!(contested.count(), report.decisions.len());
}

/// The prune mode turns the log on after the setup ran, so a setup that
/// turns it off changes neither the schedules nor the stats.
#[test]
fn prune_modes_record_footprints_whatever_the_setup_asked() {
    let explore = |record: Option<bool>| {
        let (journal, stats) = ExploreConfig::new(usize::MAX).mode(PruneMode::Revisit).run(
            move || scenario(record),
            |_, result| result.as_ref().expect("clean").quanta.len(),
        );
        let runs: Vec<(Vec<u32>, usize)> =
            journal.into_iter().map(|r| (r.choices, r.value)).collect();
        (runs, format!("{stats:?}"), stats.pruned)
    };
    let (left_on, stats_on, pruned) = explore(None);
    let (set_off, stats_off, _) = explore(Some(false));
    assert_eq!(left_on, set_off, "schedules differ");
    assert_eq!(stats_on, stats_off, "stats differ");
    assert!(left_on.iter().all(|(_, quanta)| *quanta > 0));
    assert!(pruned > 0, "the footprints license no prune");
}

/// An unpruned exploration leaves the log to the setup: the map sees one
/// record per dispatch where the setup asked, and none where it did not.
#[test]
fn an_unpruned_exploration_hands_the_map_the_log_its_setup_asked_for() {
    let explore = |record: Option<bool>| {
        let (journal, stats) = ExploreConfig::new(usize::MAX).run(
            move || scenario(record),
            |_, result| {
                let report = result.as_ref().expect("clean");
                (report.quanta.len() as u64, report.steps)
            },
        );
        assert!(stats.complete && stats.schedules > 1);
        journal.into_iter().map(|r| r.value).collect::<Vec<_>>()
    };
    assert!(explore(Some(true))
        .iter()
        .all(|&(quanta, steps)| quanta == steps));
    assert!(explore(None).iter().all(|&(quanta, _)| quanta == 0));
}
