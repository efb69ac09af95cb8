#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # axml-schema — typing substrate for Active XML
//!
//! The schema formalism `τ` of Figure 2 of *Lazy Query Evaluation for
//! Active XML* (SIGMOD 2004): regular expressions over labels, function
//! signatures (input/output types) and element content models, plus:
//!
//! * NFAs with wildcard transitions implementing the automata tests of
//!   Proposition 3 (may-influence) and condition (✳) (independence),
//! * document validation against a schema,
//! * function **satisfiability** w.r.t. query subtrees (Section 5), in an
//!   exact (coverage-fixpoint) and a lenient (graph-schema, §6.1) variant.

pub mod dfa;
pub mod nfa;
pub mod regex;
pub mod sat;
pub mod schema;
pub mod termination;
pub mod validate;

pub use dfa::{language_equal, language_includes, Dfa};
pub use nfa::{Nfa, SymNfa, TransTest};
pub use regex::{parse_re, LabelRe, Occurring, Sym};
pub use sat::{function_satisfies, SatMode, Satisfier};
pub use schema::{figure2_schema, parse_schema, ClosureSet, FunSig, Schema, SchemaParseError};
pub use termination::{call_graph, check_document, check_termination, Termination};
pub use validate::{forest_matches_type, validate, ValidationError};
