#![forbid(unsafe_code)]
#![deny(deprecated)]
//! The evaluation harness: regenerates every figure and finding of the
//! paper as machine-readable reports.
//!
//! Each `*_report` function corresponds to a row of the experiment index
//! in `DESIGN.md` / `EXPERIMENTS.md`:
//!
//! * [`coverage_report`] — T2: taxonomy coverage and the minimal test set;
//! * [`expressiveness_report`] — T3: the (mechanism × information type)
//!   matrix, *derived from the implemented solutions* and cross-checked
//!   against the paper's claims;
//! * [`independence_report`] — T4: constraint-independence scores and
//!   modification costs across the readers/writers family;
//! * [`anomaly_report`] — F1a: exhaustive-exploration statistics for the
//!   footnote-3 anomaly;
//! * [`crash_robustness_report`] — R1: the crash-robustness matrix
//!   (mechanism × problem → contained/poisoned/wedged) under deterministic
//!   fault injection;
//! * [`liveness_robustness_report`] — R2: the liveness-robustness matrix
//!   (mechanism × scenario → recovers/degrades/wedges) under deadlines,
//!   deadlock recovery and the starvation watchdog;
//! * [`r3_report`] — R3: measured law-violation rates under seeded
//!   sampled schedules (PCT and random walks) across the workload-DSL
//!   population ladder, with a shrunk minimal counterexample;
//! * [`solution_matrix_report`] — T1: every cell of
//!   [`bloom_problems::suite`] validated against its law set;
//! * [`modularity_report`] — §2/T6: the modularity assessment;
//! * [`run_anatomy_report`] — O1: the per-run `SimMetrics` (dispatches,
//!   context switches, parks/wakes, queue depths, sync-op counts) across
//!   the solution matrix.
//!
//! The `report` binary prints them all; `EXPERIMENTS.md` archives the
//! output.

pub mod hostmeta;
pub mod rt_conformance;

use bloom_core::checks::check_priority_over;
use bloom_core::events::extract;
use bloom_core::liveness::{classify_liveness, LivenessOutcome};
use bloom_core::report::{section, table};
use bloom_core::CrashOutcome;
use bloom_core::{
    catalog, classify_rate, full_target, independence, minimal_cover, modification_cost,
    paper_profile, Directness, InfoType, MechanismId,
};
use bloom_problems::drivers::{self, footnote3_sim};
use bloom_problems::faults::{outcome_sweep, CrashMechanism, CrashProblem};
use bloom_problems::liveness::{
    liveness_outcome, timeout_withdrawal_sim, LiveMechanism, LiveScenario, HOLD,
};
use bloom_problems::r3::{
    nested_monitor_at_scale, nested_monitor_laws, starvation_at_scale, starvation_laws,
};
use bloom_problems::registry::{all_descs, derived_ratings};
use bloom_problems::rw::{self, RwVariant};
use bloom_problems::suite::cells;
use bloom_problems::symbolic::{compare_andler, compare_csp, SymbolicComparison};
use bloom_problems::workload::{Arrival, Think, WorkloadSpec};
use bloom_sim::{shrink_prefix, ExploreConfig, SampleStrategy, Sim};
use std::sync::Arc;

/// T2: catalog coverage and the minimal evaluation set.
pub fn coverage_report() -> String {
    let cat = catalog();
    let target = full_target(&cat);
    let rows: Vec<Vec<String>> = cat
        .iter()
        .map(|p| {
            let features: Vec<String> = p
                .features()
                .iter()
                .map(|(k, i)| format!("{k}×{i}"))
                .collect();
            vec![p.id.label().to_string(), features.join(", ")]
        })
        .collect();
    let mut out = table(&["problem", "features exercised (kind × info)"], &rows);
    let cover = minimal_cover(&cat, &target).expect("catalog covers itself");
    let names: Vec<&str> = cover.iter().map(|&i| cat[i].id.label()).collect();
    out.push_str(&format!(
        "\nMinimal covering set ({} of {} problems): {}\n",
        cover.len(),
        cat.len(),
        names.join(", ")
    ));
    section(
        "T2 — Coverage and minimal test-set selection (paper §1/§4.1)",
        &out,
    )
}

/// T3: the expressive-power matrix, derived from the solutions.
pub fn expressiveness_report() -> String {
    let headers: Vec<&str> = std::iter::once("mechanism")
        .chain(InfoType::ALL.iter().map(|i| i.label()))
        .collect();
    let rows: Vec<Vec<String>> = MechanismId::ALL
        .iter()
        .map(|&mech| {
            let derived = derived_ratings(mech);
            let paper = paper_profile(mech);
            let mut row = vec![mech.label().to_string()];
            for info in InfoType::ALL {
                let cell = match derived.get(&info) {
                    Some(rating) => rating.to_string(),
                    None => match paper.rating(info) {
                        // Not exercised by a solution: show the paper's
                        // claim, marked as such.
                        Directness::Inaccessible => "—".to_string(),
                        claimed => format!("({claimed})"),
                    },
                };
                row.push(cell);
            }
            row
        })
        .collect();
    let mut out = table(&headers, &rows);
    out.push_str(
        "\nRatings derived from the 41 implemented solutions; parenthesised cells are \
         paper-profile claims not exercised by a solution (e.g. the bounded buffer is \
         inexpressible in v1 paths, so path-v1 never exercises local state).\n",
    );
    section("T3 — Expressive power matrix (paper §4.1/§5)", &out)
}

/// T4: constraint independence across the readers/writers family.
pub fn independence_report() -> String {
    let mechs = [
        MechanismId::Semaphore,
        MechanismId::Monitor,
        MechanismId::Serializer,
        MechanismId::PathV1,
    ];
    let rows: Vec<Vec<String>> = mechs
        .iter()
        .map(|&mech| {
            let rp = rw::make(mech, RwVariant::ReadersPriority).desc();
            let wp = rw::make(mech, RwVariant::WritersPriority).desc();
            let fc = rw::make(mech, RwVariant::Fcfs).desc();
            let fmt_score = |s: Option<f64>| match s {
                Some(x) => format!("{x:.2}"),
                None => "n/a".to_string(),
            };
            vec![
                mech.label().to_string(),
                fmt_score(independence(&rp, &wp).score),
                fmt_score(independence(&rp, &fc).score),
                format!("{:.2}", modification_cost(&rp, &wp).fraction()),
                format!("{:.2}", modification_cost(&rp, &fc).fraction()),
            ]
        })
        .collect();
    let mut out = table(
        &[
            "mechanism",
            "indep. rp↔wp",
            "indep. rp↔fcfs",
            "mod. cost rp→wp",
            "mod. cost rp→fcfs",
        ],
        &rows,
    );
    out.push_str(
        "\nIndependence = fraction of shared constraints implemented identically \
         (1.00 = the paper's additivity ideal). Monitors and serializers preserve the \
         exclusion constraint across every priority change; path expressions and \
         semaphores rewrite everything — §5.1.2's finding, quantified.\n",
    );
    section("T4 — Constraint independence (paper §4.2/§5.1.2)", &out)
}

/// Outcome of exploring one mechanism's readers-priority solution.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyStats {
    /// Schedules explored (tree fully covered).
    pub schedules: usize,
    /// Schedules violating the readers-priority constraint.
    pub violations: usize,
}

/// Exhaustively explores the footnote-3 scenario for one mechanism.
///
/// Runs on the work-sharing parallel engine — the per-schedule counts
/// are thread-count-independent by construction, so the report text stays
/// machine-independent.
pub fn explore_anomaly(mech: MechanismId) -> AnomalyStats {
    let (journal, _) = ExploreConfig::new(500_000).threads(4).run(
        || footnote3_sim(mech, RwVariant::ReadersPriority, 2, 1),
        |_, result| {
            if let Ok(report) = result {
                let events = extract(&report.trace);
                !check_priority_over(&events, "read", "write").is_empty()
            } else {
                false
            }
        },
    );
    AnomalyStats {
        schedules: journal.len(),
        violations: journal.iter().filter(|r| r.value).count(),
    }
}

/// F1a: the footnote-3 anomaly, quantified by exhaustive exploration.
pub fn anomaly_report() -> String {
    let rows: Vec<Vec<String>> = [
        MechanismId::PathV1,
        MechanismId::PathV3,
        MechanismId::Semaphore,
        MechanismId::Monitor,
        MechanismId::Serializer,
        MechanismId::Csp,
    ]
    .iter()
    .map(|&mech| {
        let s = explore_anomaly(mech);
        vec![
            mech.label().to_string(),
            s.schedules.to_string(),
            s.violations.to_string(),
            if s.violations > 0 {
                "ANOMALOUS (footnote 3)"
            } else {
                "correct"
            }
            .to_string(),
        ]
    })
    .collect();
    let mut out = table(
        &[
            "readers-priority solution",
            "schedules (all)",
            "violating",
            "verdict",
        ],
        &rows,
    );
    out.push_str(
        "\nScenario: two writers and one reader, every interleaving explored. Figure 1's \
         path solution lets the second writer beat the waiting reader in some schedules; \
         the other mechanisms never do — including path-expr v3, where one Andler \
         predicate (blocked(read) == 0 on write) repairs Figure 1's defect.\n",
    );
    section("F1a — Footnote-3 anomaly, exhaustively verified", &out)
}

/// Exploration budget per E5 tree (both trees finish far below it).
const SYMBOLIC_BUDGET: usize = 500_000;

/// E5: symbolic data nondeterminism — `Ctx::choose_value` guard inputs
/// explored as constraint classes instead of concrete values.
///
/// Each scenario is explored twice in revisit mode: once per concrete
/// domain value (schedules summed) and once symbolically, where runs
/// whose guard outcomes agree collapse into a single class
/// representative. The symbolic exploration must reproduce exactly the
/// concrete behavior set — every guard valuation verified — while
/// executing strictly fewer schedules.
pub fn symbolic_report() -> String {
    let row = |label: &str, c: &SymbolicComparison| {
        vec![
            label.to_string(),
            c.domain.to_string(),
            c.concrete_schedules.to_string(),
            c.symbolic_schedules.to_string(),
            c.sym_grants.to_string(),
            if c.behaviors_match && c.clean && c.symbolic_schedules < c.concrete_schedules {
                "verified (all valuations)".to_string()
            } else {
                "FAIL".to_string()
            },
        ]
    };
    let andler = compare_andler(SYMBOLIC_BUDGET);
    let csp = compare_csp(SYMBOLIC_BUDGET);
    let mut out = table(
        &[
            "scenario",
            "domain",
            "concrete scheds (sum)",
            "symbolic scheds",
            "classes granted",
            "verdict",
        ],
        &[
            row("path-v3 Andler reader burst", &andler),
            row("CSP buffer, symbolic capacity", &csp),
        ],
    );
    out.push_str(
        "\nScenarios: a load generator draws a reader-burst size t in 1..=8 and spawns \
         reader i while t > i (three readers max) against the Andler predicate-path \
         solution with a writer in flight; a CSP bounded-buffer server draws its \
         capacity in 1..=8 and guards deposits with the symbolic comparison \
         capacity > len. Concrete = one revisit-mode exploration per domain value; \
         symbolic = one exploration of the choose_value version, which only forks a \
         sibling value when it flips a recorded guard (classes granted). The verdict \
         checks the symbolic behavior set equals the concrete union, every schedule \
         passes the scenario's correctness check (readers priority + exclusion; FIFO \
         delivery), and the symbolic count is strictly below concrete enumeration.\n",
    );
    section(
        "E5 — Symbolic data nondeterminism (choose_value guard classes)",
        &out,
    )
}

/// Kill points swept per crash-robustness cell — past the victim's last
/// scheduling point in every scenario, so the whole fault surface is hit.
const CRASH_KILL_POINTS: u64 = 8;

/// R1: the crash-robustness matrix. Each cell kills the victim at every
/// scheduling point `1..=8` of the canonical schedule and classifies the
/// aftermath (see `bloom_core::crash`): *contained* — survivors finish,
/// or the loss is reported as a named deadlock; *poisoned* — the primitive
/// records the crash and survivors observe it as a value; *wedged* —
/// survivors hang on state the corpse can no longer repair.
pub fn crash_robustness_report() -> String {
    let summarize = |outcomes: &[(u64, CrashOutcome)]| {
        let worst = outcomes
            .iter()
            .map(|&(_, o)| o)
            .max()
            .expect("at least one kill point");
        let count = |kind: CrashOutcome| outcomes.iter().filter(|&&(_, o)| o == kind).count();
        format!(
            "{worst}  ({}c/{}p/{}w)",
            count(CrashOutcome::Contained),
            count(CrashOutcome::Poisoned),
            count(CrashOutcome::Wedged),
        )
    };
    let rows: Vec<Vec<String>> = CrashMechanism::ALL
        .iter()
        .map(|&mech| {
            let mut row = vec![mech.label().to_string()];
            for &problem in CrashProblem::ALL.iter() {
                row.push(summarize(&outcome_sweep(mech, problem, CRASH_KILL_POINTS)));
            }
            row
        })
        .collect();
    let mut out = table(&["mechanism", "readers/writers", "bounded buffer"], &rows);
    out.push_str(&format!(
        "\nEach cell: worst outcome over kill points 1..={CRASH_KILL_POINTS} \
         (contained/poisoned/wedged tally). Bare P/V wedges — a dead holder's \
         permit is unrecoverable. Lock, monitor and path expressions poison: \
         the crash becomes a value survivors can observe. Serializer crowds \
         contain reader/writer crashes outright (membership cleanup re-runs \
         the guards); its possession-held bodies poison like a monitor. CSP \
         contains whenever the server owns the state, but wedges when a \
         granted writer dies mid-protocol — the server is mid-rendezvous \
         with a corpse.\n",
    ));
    section(
        "R1 — Crash robustness under deterministic fault injection",
        &out,
    )
}

/// Patience values swept per timeout-withdrawal cell — below and above
/// the holder's occupancy, so every cell sees both the withdrawal path
/// and the deadline-met path.
const LIVENESS_PATIENCE_SWEEP: [u64; 4] = [1, 2, HOLD, HOLD + 4];

/// R2: the liveness-robustness matrix. The *timeout withdrawal* column
/// sweeps contender patience below and above the holder's occupancy and
/// tallies the classifications (see `bloom_core::liveness`): *recovers* —
/// served within the first patience window; *recovers-after-retry* —
/// served, but only after a clean withdrawal (the visible cost of a
/// bounded retry loop, kept distinct from degradation); *degrades* —
/// poison, a starvation flag or a permanent give-up; *wedges* — the run
/// dies. The
/// other two columns run one canonical schedule each: a genuine cyclic
/// deadlock with kernel victim-abort recovery on, and a writer retrying
/// under two resource hogs with the starvation watchdog armed.
pub fn liveness_robustness_report() -> String {
    let rows: Vec<Vec<String>> = LiveMechanism::ALL
        .iter()
        .map(|&mech| {
            let outcomes: Vec<LivenessOutcome> = LIVENESS_PATIENCE_SWEEP
                .iter()
                .map(|&patience| classify_liveness(&timeout_withdrawal_sim(mech, patience).run()))
                .collect();
            let worst = *outcomes.iter().max().expect("at least one patience");
            let count = |kind: LivenessOutcome| outcomes.iter().filter(|&&o| o == kind).count();
            vec![
                mech.label().to_string(),
                format!(
                    "{worst}  ({}r/{}ar/{}d/{}w)",
                    count(LivenessOutcome::Recovers),
                    count(LivenessOutcome::RecoversAfterRetry),
                    count(LivenessOutcome::Degrades),
                    count(LivenessOutcome::Wedges),
                ),
                liveness_outcome(mech, LiveScenario::DeadlockRecovery).to_string(),
                liveness_outcome(mech, LiveScenario::StarvationWatchdog).to_string(),
            ]
        })
        .collect();
    let mut out = table(
        &[
            "mechanism",
            "timeout withdrawal",
            "deadlock recovery",
            "starvation watchdog",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\nTimeout cell: worst outcome over patience {LIVENESS_PATIENCE_SWEEP:?} \
         (recovers/recovers-after-retry/degrades/wedges tally) — every mechanism \
         withdraws cleanly and retries to success: impatient contenders end \
         recovers-after-retry (served on a later attempt), patient ones plain \
         recovers. Deadlock recovery: aborting the victim recovers \
         outright where unwinding fully restores what it held (semaphore permits, \
         serializer crowd seats) but degrades to poison where the victim died \
         inside a monitor or mid-operation in a path expression, and to a dead \
         rendezvous cycle in CSP. Starvation watchdog: the weak semaphore starves \
         the writer under two polling hogs — flagged on a concrete replayable \
         schedule — while the FIFO disciplines all serve it.\n",
    ));
    section(
        "R2 — Liveness robustness: deadlines, cancellation and recovery",
        &out,
    )
}

/// The R3 workload ladder: one rung per population decade. The shapes
/// change with scale on purpose — everybody-at-once keeps small
/// populations saturated, while the thousand-client rung arrives in
/// bursts with heavy-tailed think times, so the contention calibration
/// tracks the burst (16), not the population.
fn r3_spec(n: usize) -> WorkloadSpec {
    match n {
        10 => WorkloadSpec::new(0xB10)
            .clients(10)
            .ops(6)
            .arrival(Arrival::Together)
            .think(Think::None),
        100 => WorkloadSpec::new(0xB100)
            .clients(100)
            .ops(3)
            .arrival(Arrival::Together)
            .think(Think::None),
        // The burst gap must exceed a burst's service time (~3600 ticks:
        // 32 critical sections, each costing the active set's spin
        // budget) or bursts pile up until the whole population polls at
        // once and the step budget explodes quadratically.
        _ => WorkloadSpec::new(0xB1000)
            .clients(1000)
            .ops(2)
            .arrival(Arrival::Bursts {
                size: 16,
                gap: 4000,
            })
            .think(Think::Zipf {
                max: 6,
                exponent: 1,
            }),
    }
}

/// Iterations sampled per rung: runs get longer as populations grow, so
/// the budget shifts from breadth to depth (the report must stay cheap
/// enough to regenerate inside the debug-mode golden test).
const R3_LADDER: [(usize, u64); 3] = [(10, 40), (100, 6), (1000, 4)];

/// R3: measured violation rates under sampled schedules, at populations
/// far beyond the exhaustive explorers.
///
/// Each rung of the `r3_spec` ladder samples the scaled starvation
/// scenario under PCT for both semaphore disciplines, and the
/// nested-monitor race under seeded random walks at the 100-client
/// rung, checking every run against its law set
/// ([`bloom_problems::r3`]). Sampled journals are seeded and
/// worker-count-independent, so the table is deterministic and
/// machine-independent. The first weak-semaphore counterexample is
/// shrunk to a locally minimal decision-vector prefix as a closing
/// exhibit. In nomercy fashion, an unobserved rate means "no
/// counterexample found at this budget" — never "impossible"; the
/// strong semaphore's zero is backed by the structural hand-off
/// argument in `bloom_problems::r3`, not by the sampling.
pub fn r3_report() -> String {
    let starvation = starvation_laws();
    let nested = nested_monitor_laws();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut shrink_note = String::new();

    let mut push_row =
        |scenario: &str, n: usize, runs: usize, law: &str, hits: u64, first: Option<u64>| {
            rows.push(vec![
                scenario.to_string(),
                n.to_string(),
                runs.to_string(),
                law.to_string(),
                format!("{hits}/{runs}"),
                classify_rate(hits, runs).to_string(),
                first.map_or_else(|| "—".to_string(), |i| format!("iter {i}")),
            ]);
        };

    for &(n, iters) in &R3_LADDER {
        let spec = r3_spec(n);
        for (label, mech) in [
            ("starvation, weak sem", LiveMechanism::SemaphoreWeak),
            ("starvation, strong sem", LiveMechanism::SemaphoreStrong),
        ] {
            let (journal, stats) = ExploreConfig::new(0).sample(
                SampleStrategy::Pct {
                    change_points: 4,
                    depth_hint: 2048,
                },
                iters as usize,
                0x000B_100F + n as u64,
                || starvation_at_scale(mech, &spec),
                |_, result| {
                    let violated = starvation.violated(result);
                    (violated.clone(), violated)
                },
            );
            let sampling = stats.sampling.expect("sampler always fills stats");
            let hits = sampling
                .violations
                .get("starvation-free")
                .copied()
                .unwrap_or(0);
            let first = sampling.first_hits.get("starvation-free").copied();
            push_row(label, n, sampling.runs, "starvation-free", hits, first);

            if n == 10 && mech == LiveMechanism::SemaphoreWeak && hits > 0 {
                let witness = journal
                    .iter()
                    .find(|r| r.value.iter().any(|k| k == "starvation-free"))
                    .expect("hits > 0 implies a journaled witness");
                let minimal = shrink_prefix(
                    || starvation_at_scale(mech, &spec),
                    &witness.choices,
                    |result| {
                        starvation
                            .violated(result)
                            .iter()
                            .any(|k| k == "starvation-free")
                    },
                );
                shrink_note = format!(
                    "Shrunk witness (weak, n=10, iter {}): {} contested decisions \
                     → {}-decision minimal prefix, still starving on replay.\n",
                    witness.iteration,
                    witness.choices.len(),
                    minimal.len()
                );
            }
        }
    }

    let nested_spec = r3_spec(100);
    let (_, stats) = ExploreConfig::new(0).sample(
        SampleStrategy::Walk,
        20,
        0x000B_100E,
        || nested_monitor_at_scale(&nested_spec),
        |_, result| ((), nested.violated(result)),
    );
    let sampling = stats.sampling.expect("sampler always fills stats");
    let hits = sampling.violations.get("no-deadlock").copied().unwrap_or(0);
    let first = sampling.first_hits.get("no-deadlock").copied();
    push_row(
        "nested-monitor race",
        100,
        sampling.runs,
        "no-deadlock",
        hits,
        first,
    );

    let mut out = table(
        &[
            "scenario",
            "n",
            "runs",
            "law",
            "violations",
            "rate",
            "first hit",
        ],
        &rows,
    );
    out.push('\n');
    out.push_str(&shrink_note);
    out.push_str(
        "PCT sampling (4 change points) over the workload-DSL population ladder; \
         nested-monitor row sampled by seeded random walks. The weak semaphore's \
         starvation rate survives every population decade while the strong \
         discipline's direct hand-off keeps its rate unobserved at the same \
         budgets — the paper's §5.1 weak/strong distinction, now measured rather \
         than exhibited. Rates are schedule-sampling frequencies under one seeded \
         sampler, not probabilities under any natural scheduler.\n",
    );
    section(
        "R3 — Violation rates at scale: sampled schedules, law checking",
        &out,
    )
}

/// T1: runs every suite cell under each of its runs against its law set;
/// returns (row per cell, failures tagged with cell, workload and seed).
pub fn solution_matrix() -> (Vec<Vec<String>>, Vec<String>) {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for cell in cells() {
        let failed = cell.sweep();
        rows.push(vec![
            cell.problem.label().to_string(),
            cell.mechanism.label().to_string(),
            cell.laws.names().join(", "),
            if failed.is_empty() { "pass" } else { "FAIL" }.to_string(),
        ]);
        failures.extend(failed);
    }
    (rows, failures)
}

/// T1 rendered.
pub fn solution_matrix_report() -> String {
    let (rows, failures) = solution_matrix();
    let mut out = table(&["problem", "mechanism", "checks", "verdict"], &rows);
    out.push_str(
        "\nRuns per cell: FIFO plus ten seeds (disk scheduler, alarm clock: six workloads \
         × FIFO and one seed). Exemptions:\n",
    );
    for cell in cells() {
        if let Some(reason) = cell.exemption {
            out.push_str(&format!("  {cell}: {reason}.\n"));
        }
    }
    if failures.is_empty() {
        out.push_str("\nAll solutions satisfy all their laws.\n");
    } else {
        out.push_str(&format!("\n{} FAILURES:\n", failures.len()));
        for f in &failures {
            out.push_str(&format!("  {f}\n"));
        }
    }
    section(
        "T1 — Solution matrix (footnote 2's suite × mechanisms)",
        &out,
    )
}

/// §2/T6: the modularity assessment.
pub fn modularity_report() -> String {
    let rows: Vec<Vec<String>> = MechanismId::ALL
        .iter()
        .map(|&m| {
            let p = paper_profile(m);
            vec![
                m.label().to_string(),
                p.modularity.encapsulated.to_string(),
                p.modularity.separable.to_string(),
                p.notes.first().cloned().unwrap_or_default(),
            ]
        })
        .collect();
    let out = table(
        &[
            "mechanism",
            "encapsulated with resource",
            "resource/sync separable",
            "note",
        ],
        &rows,
    );
    section("T6 — Modularity requirements (paper §2)", &out)
}

/// Workaround census: where each mechanism had to escape its own style.
pub fn workaround_report() -> String {
    let mut rows = Vec::new();
    for desc in all_descs() {
        if !desc.workarounds.is_empty() {
            rows.push(vec![
                desc.problem.label().to_string(),
                desc.mechanism.label().to_string(),
                desc.workarounds.join("; "),
            ]);
        }
    }
    let out = table(&["problem", "mechanism", "workaround"], &rows);
    section(
        "T3b — Workaround census (the paper's synchronization procedures)",
        &out,
    )
}

/// O1: run anatomy — the `SimMetrics` of one canonical run (FIFO, workload
/// 0) of each suite cell at its T1 shape, side by side. Metrics are
/// non-authoritative observability counters recorded by the simulator on
/// every run; the table makes mechanism overhead visible (context
/// switches, parks, peak wait-queue depth, mechanism-labelled sync
/// operations) without touching any correctness machinery.
pub fn run_anatomy_report() -> String {
    let rows: Vec<Vec<String>> = cells()
        .iter()
        .map(|cell| {
            let report = drivers::run(cell.build(0), None).unwrap_or_else(|err| *err.report);
            let m = &report.metrics;
            vec![
                cell.problem.label().to_string(),
                cell.mechanism.label().to_string(),
                m.dispatches.to_string(),
                m.context_switches.to_string(),
                m.total_parks().to_string(),
                m.total_wakes().to_string(),
                m.max_queue_depth().to_string(),
                m.total_sync_ops().to_string(),
            ]
        })
        .collect();
    let mut out = table(
        &[
            "problem",
            "mechanism",
            "disp",
            "switch",
            "parks",
            "wakes",
            "peak q",
            "sync ops",
        ],
        &rows,
    );
    out.push_str(
        "\nOne canonical FIFO run per T1 cell, at its T1 shape (disk scheduler and alarm \
         clock: workload 0). disp/switch: dispatches and context \
         switches; parks/wakes: blocking episodes entered/ended (by any cause); \
         peak q: deepest wait queue observed; sync ops: mechanism-labelled \
         synchronization-state touches (the same instrumentation that powers the \
         explorer's footprint log, so recording it adds no scheduling points). \
         Metrics are non-authoritative: they observe scheduling, never influence \
         it, and are byte-identical across explorer thread counts.\n",
    );
    section(
        "O1 — Run anatomy (SimMetrics across the solution matrix)",
        &out,
    )
}

/// The complete report, in experiment-index order.
pub fn full_report() -> String {
    let mut out = String::new();
    out.push_str("# bloom-eval report — Evaluating Synchronization Mechanisms (SOSP 1979)\n\n");
    out.push_str(&coverage_report());
    out.push('\n');
    out.push_str(&expressiveness_report());
    out.push('\n');
    out.push_str(&workaround_report());
    out.push('\n');
    out.push_str(&independence_report());
    out.push('\n');
    out.push_str(&anomaly_report());
    out.push('\n');
    out.push_str(&symbolic_report());
    out.push('\n');
    out.push_str(&crash_robustness_report());
    out.push('\n');
    out.push_str(&liveness_robustness_report());
    out.push('\n');
    out.push_str(&r3_report());
    out.push('\n');
    out.push_str(&modularity_report());
    out.push('\n');
    out.push_str(&solution_matrix_report());
    out.push('\n');
    out.push_str(&run_anatomy_report());
    out
}

/// The fixed two-process semaphore run behind the trace-export golden
/// files (`docs/trace_export.jsonl`, `docs/trace_export.chrome.json`):
/// two processes contend for one strong-semaphore permit under the
/// default FIFO policy, so the run parks, wakes, and context-switches
/// deterministically. `examples/trace_export.rs` exports this run; the
/// `trace_export` integration test pins its exact exported bytes.
pub fn trace_export_sample() -> bloom_sim::SimReport {
    let sem = Arc::new(bloom_semaphore::Semaphore::strong("gate", 1));
    let mut sim = Sim::new();
    for (name, base) in [("ping", 0i64), ("pong", 10i64)] {
        let sem = Arc::clone(&sem);
        sim.spawn(name, move |ctx| {
            for i in 0..2 {
                sem.p(ctx);
                ctx.emit("enter", &[base + i]);
                ctx.yield_now();
                ctx.emit("exit", &[base + i]);
                sem.v(ctx);
            }
        });
    }
    sim.run().expect("sample run cannot deadlock")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_matrix_is_all_green() {
        let (rows, failures) = solution_matrix();
        assert!(failures.is_empty(), "failures: {failures:?}");
        assert_eq!(rows.len(), 41);
        assert!(rows.iter().all(|r| r[3] == "pass"));
    }

    #[test]
    fn anomaly_exploration_matches_the_paper() {
        let fig1 = explore_anomaly(MechanismId::PathV1);
        assert!(fig1.violations > 0);
        let monitor = explore_anomaly(MechanismId::Monitor);
        assert_eq!(monitor.violations, 0);
    }

    /// Checked on the archived `docs/report.txt`, which
    /// `tests/report_golden.rs` proves equal to a fresh [`full_report`]:
    /// rendering it a second time here would double the suite's slowest
    /// step for no extra coverage.
    #[test]
    fn full_report_renders_every_section() {
        let report = include_str!("../../../docs/report.txt");
        for heading in [
            "T1", "T2", "T3", "T4", "F1a", "E5", "R1", "R2", "R3", "T6", "O1",
        ] {
            assert!(report.contains(heading), "missing section {heading}");
        }
        assert!(report.contains("ANOMALOUS (footnote 3)"));
        assert!(!report.contains("FAIL"), "report contains failures");
    }

    #[test]
    fn liveness_matrix_matches_the_expected_verdicts() {
        let report = liveness_robustness_report();
        // The R2 headline cells: only the weak semaphore fails the
        // watchdog, and no cell of the matrix wedges.
        assert!(report.contains("semaphore (weak)"));
        assert!(report.contains("degrades"));
        assert!(!report.contains("wedges  ("), "a timeout cell wedged");
    }
}
