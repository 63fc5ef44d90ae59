//! # udm-lint
//!
//! A custom static-analysis pass over the workspace's Rust sources,
//! enforcing the numeric-safety and determinism invariants the
//! uncertain-data-mining crates rely on that clippy cannot express
//! (see `DESIGN.md`, "Numeric invariants & static analysis"). Built on a
//! self-contained lexer plus a hand-rolled recursive-descent parser
//! ([`parser`]) — no external parser dependencies — so it runs in the
//! offline build image. Every scanned file must parse with zero errors
//! and total token coverage; one that does not fails the check.
//!
//! Rules:
//!
//! * **UDM002** — no bare `==`/`!=` against float expressions outside
//!   test modules; use `udm_core::num::approx_eq` (comparisons against
//!   `fract()` results are exempt — they are exact by construction).
//!   Clippy's `float_cmp` skips comparisons with zero, which are exactly
//!   the guards this rule makes every site justify.
//! * **UDM003** — `sqrt` of variance-like expressions must route
//!   through `udm_core::num::clamped_sqrt` (catastrophic cancellation
//!   can drive the radicand negative).
//! * **UDM005** — public estimator entry points (`density*`,
//!   `classify*`) must validate finite inputs or delegate to an entry
//!   point that does.
//! * **UDM006** — `udm_observe::span!` guards must be bound to a named
//!   variable; `let _ = span!(..)` and bare `span!(..);` statements drop
//!   the RAII guard immediately, so the span covers nothing.
//! * **UDM008** — items gated on the `fast-math` feature (and the
//!   deliberately-ungated approximate roots like `fast_exp`) must stay
//!   unreachable from default-build code; cross-file pass
//!   ([`callgraph`]).
//! * **UDM009** — `OnceLock`/`OnceCell`/`Lazy` initialisers must be
//!   deterministic: no RNG, clocks, thread ids, or unordered-map
//!   iteration inside the init closure; the binding table comes from
//!   [`scope`], the rule from [`astrules`].
//!
//! Panicking calls in library code, `as` casts in the kernel modules
//! and undocumented `unsafe` blocks are clippy lints declared next to
//! the code they govern (`DESIGN.md` lists where).
//!
//! Waivers: inline `// udm-lint: allow(RULE) reason` comments cover
//! their own line and the next code line. A waiver that matches nothing
//! fails the check, so the allowlist only ever shrinks.
//!
//! Run with `cargo run -p udm-lint -- check [--root PATH] [--stats]
//! [--format text|json|sarif]` or `... parse --root PATH` (parser
//! robustness smoke).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ast;
pub mod astrules;
pub mod callgraph;
pub mod context;
pub mod engine;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;
pub mod scope;
pub mod waivers;

pub use engine::{check, CheckReport};
pub use rules::{Diagnostic, ALL_RULES};
