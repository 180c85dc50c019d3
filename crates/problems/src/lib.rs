#![forbid(unsafe_code)]
#![deny(deprecated)]
//! The canonical synchronization problem suite, solved under every
//! mechanism.
//!
//! This crate instantiates the paper's footnote-2 test set — the problems
//! chosen so that together they exercise every information category of the
//! §3 taxonomy — and solves each one with semaphores, monitors,
//! serializers, path expressions and CSP channels — 41 solutions in all,
//! including the Andler predicate (path-v3) readers-priority fix:
//!
//! | module      | problem                | info types exercised            |
//! |-------------|------------------------|---------------------------------|
//! | [`buffer`]  | bounded buffer         | local state                     |
//! | [`fcfs`]    | FCFS resource          | request time                    |
//! | [`rw`]      | readers/writers ×3     | request type, sync state, time  |
//! | [`disk`]    | disk-head scheduler    | request parameters              |
//! | [`alarm`]   | alarm clock            | request parameters, local state |
//! | [`oneslot`] | one-slot buffer        | history                         |
//!
//! Every solution:
//!
//! * emits the uniform `req`/`enter`/`exit` event vocabulary of
//!   [`bloom_core::events`], so one checker per constraint validates all
//!   mechanisms;
//! * carries a [`bloom_core::SolutionDesc`] attributing its implementation
//!   components to catalog constraints (feeding the §4.2 independence
//!   analysis) and rating how it accessed each information type (feeding
//!   the §4.1 expressiveness analysis, cross-checked against the paper's
//!   claims in [`registry`]).
//!
//! [`suite`] declares each solution once, as a T1 cell: its scenario (a
//! [`drivers`] builder returning an unrun `Sim`), its laws, the runs it is
//! checked under and any exemption. The report, the root `solution_matrix`
//! test and [`registry`] iterate it.
//!
//! The paper's Figures 1 and 2 are reproduced verbatim in [`rw`], complete
//! with Figure 1's footnote-3 priority anomaly.

pub mod alarm;
pub mod buffer;
pub mod csp;
pub mod disk;
pub mod drivers;
pub mod events;
pub mod extra;
pub mod faults;
pub mod fcfs;
pub mod liveness;
pub mod oneslot;
pub mod r3;
pub mod registry;
pub mod rw;
pub mod suite;
pub mod symbolic;
pub mod workload;

pub use alarm::AlarmClock;
pub use buffer::BoundedBuffer;
pub use disk::DiskScheduler;
pub use fcfs::FcfsResource;
pub use oneslot::OneSlot;
pub use rw::{ReadersWriters, RwVariant};
