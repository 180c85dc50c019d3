//! The exhaustive schedule explorer, hands on.
//!
//! ```text
//! cargo run --release --example explore_schedules
//! ```
//!
//! The simulator records every contested scheduling decision;
//! [`ExploreConfig::run`] walks the tree of those decisions — here on four
//! workers sharing one frontier of branch prefixes — running *every*
//! interleaving of a scenario. This example uses it to map the deadlock
//! space of the dining philosophers: what fraction of schedules deadlocks
//! naively, and that the two classic cures drive it to zero.

use bloom_problems::extra::dining::{naive_sim, ordered_sim};
use bloom_sim::prelude::*;

fn explore(label: &str, setup: impl Fn() -> Sim + Sync) {
    let (journal, stats) = ExploreConfig::new(2_000_000)
        .threads(4)
        .run(setup, |_, result| result.is_err());
    assert!(stats.complete, "{label}: exploration hit the budget cap");
    let schedules = journal.len();
    let deadlocks = journal.iter().filter(|r| r.value).count();
    let pct = 100.0 * deadlocks as f64 / schedules as f64;
    println!("  {label:<28} {schedules:>7} schedules, {deadlocks:>5} deadlock ({pct:>5.1}%)");
}

fn main() {
    println!("== Mapping the dining-philosophers deadlock space ==\n");
    println!("Every interleaving of every variant is executed; a deadlock is any");
    println!("schedule the simulator reports as one (all processes blocked).\n");

    for n in [2usize, 3, 4] {
        explore(&format!("naive, {n} philosophers"), || naive_sim(n));
    }
    println!();
    for n in [2usize, 3, 4] {
        explore(&format!("ordered, {n} philosophers"), || ordered_sim(n));
    }

    println!(
        "\nThe deadlock fraction shrinks as the table grows (the circular wait needs\n\
         every philosopher holding its left fork), which is why the bug gets rarer —\n\
         not safer — on real schedulers. Resource ordering removes the cycle\n\
         entirely: zero deadlocking schedules, proven over the whole tree."
    );
}
