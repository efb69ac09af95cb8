#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # axml-query — tree-pattern queries over Active XML documents
//!
//! The query model of Section 2 of *Lazy Query Evaluation for Active XML*
//! (SIGMOD 2004): tree patterns with constants, variables, `*`, descendant
//! edges and result nodes, capturing the core tree-pattern fragment of
//! XPath/XQuery; *extended* patterns add OR nodes and function nodes, the
//! machinery behind the paper's node-focused queries (NFQs).
//!
//! ```
//! use axml_query::{parse_query, eval};
//! use axml_xml::parse;
//!
//! let doc = parse("<hotels><hotel><name>BW</name><rating>5</rating></hotel></hotels>").unwrap();
//! let q = parse_query("/hotels/hotel[rating=\"5\"]/name").unwrap();
//! assert_eq!(eval(&q, &doc).len(), 1);
//! ```

pub mod construct;
pub mod display;
pub mod eval;
pub mod linear;
pub mod parser;
pub mod pattern;
pub mod plan;

pub use construct::construct_results;
pub use display::render;
pub use eval::{
    embeddings, eval, eval_with, render_result, render_result_refs, seed_eval, FxBuildHasher,
    FxHasher, Matcher, ResultTuple, SnapshotResult,
};
pub use linear::{LinStep, LinearPath, StepTest};
pub use parser::{parse_query, QueryParseError};
pub use pattern::{EdgeKind, FunMatch, PLabel, PNode, PNodeId, Pattern};
pub use plan::{PlanBinding, PlanScratch, QueryPlan};
