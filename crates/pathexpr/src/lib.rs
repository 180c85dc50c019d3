#![forbid(unsafe_code)]
#![deny(deprecated)]
//! Campbell–Habermann path expressions over the `bloom-sim` simulator.
//!
//! Path expressions ("The Specification of Process Synchronization by Path
//! Expressions", 1974) are the non-procedural mechanism Bloom's paper
//! analyzes in depth (§5.1): synchronization is specified as the set of
//! allowable orderings of resource operations, written
//!
//! ```text
//! path { requestread } , requestwrite end
//! ```
//!
//! with sequencing `;`, selection `,`, concurrent repetition `{ e }`, and
//! the implicit cyclic repetition of `path … end`. A process invoking an
//! operation that cannot occur next in every path is blocked until it can;
//! when several blocked requests become startable, the longest-waiting one
//! is resumed first (the selection assumption Bloom states explicitly).
//!
//! The crate provides:
//!
//! * [`Path`]/[`PathExpr`] — the AST, with pretty-printing;
//! * [`parse_path`]/[`parse_paths`] — the parser;
//! * [`PathResource`] — the runtime: a resource whose operations are
//!   guarded by the conjunction of several compiled paths;
//! * the **version-2 numeric operator** `n : ( e )` (Flon & Habermann),
//!   which Bloom reports was added to fix expressiveness weaknesses — used
//!   by the ablation experiments to contrast mechanism versions.
//!
//! The compilation scheme (a token machine generalizing the original
//! semaphore encoding) is documented in the private `compile` module. The
//! machine that runs it — the conjunction of paths and the longest-waiting
//! scan — is the doc-hidden `backend` module, which the simulator's
//! [`PathResource`] and bloom-rt's `RtPathResource` both run on; each adds
//! only its own blocking protocol.
//!
//! Both of the paper's figures — the readers-priority (Figure 1) and
//! writers-priority (Figure 2) path solutions, *including the footnote-3
//! priority anomaly of Figure 1* — are reproduced with this crate in
//! `bloom-problems` and the workspace integration tests.

mod ast;
#[doc(hidden)]
pub mod backend;
mod compile;
mod machine;
mod parse;

pub use ast::{Path, PathExpr};
pub use backend::PredicateView;
pub use machine::PathResource;
pub use parse::{parse_path, parse_paths, ParseError};
