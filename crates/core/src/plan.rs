//! Compiled query plans for the engine: parse/compile **once per
//! (query, schema, config)**, serve any number of documents.
//!
//! A [`CompiledQuery`] fuses every artifact the engine derives from the
//! query alone — work that [`crate::Engine::evaluate`] otherwise redoes
//! per run:
//!
//! * the main pattern's [`QueryPlan`] (the pattern and its enumeration
//!   tables),
//! * the NFQs (Figure 5) after XPath relaxation and containment pruning,
//!   with the pruned count preserved for the stats,
//! * the LPQs,
//! * the influence [`Layers`] (§4.2–4.3),
//! * per-NFQ *position* languages, the label-level NFAs the
//!   function-call guide is read with ([`position_language`]),
//! * a shared satisfiability-verdict store ([`SatVerdicts`]) so §5's
//!   typing refinement never reproves a `(function, query-node)` pair,
//!   across runs and sessions.
//!
//! Per document, the remaining setup is compiling against the document's
//! interned symbols: the main pattern's label tests
//! ([`QueryPlan::bind`]) and the position languages, which compile to
//! symbol automata. Results, traces and statistics are byte-identical to a run
//! without a plan — both call the same builders (below), an invariant the
//! differential plan-equivalence oracle pins.
//!
//! The artifact is immutable and thread-safe; share it behind an `Arc`
//! (the store's `PlanCache` does exactly that).

use crate::containment::{prune_subsumed_lpqs, prune_subsumed_nfqs};
use crate::engine::{EngineConfig, Typing};
use crate::fguide::position_language;
use crate::influence::{compute_layers, Layers};
use crate::nfq::{build_lpqs, build_nfqs, relax_nfq_to_xpath, Lpq, Nfq};
use crate::typed::SatVerdicts;
use axml_query::{Pattern, QueryPlan};
use axml_schema::{Nfa, SatMode, Schema};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The compile-relevant slice of an [`EngineConfig`]: strategy,
/// parallelism, budgets etc. don't invalidate a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CompileBits {
    typing: Typing,
    relax_xpath: bool,
    containment_pruning: bool,
}

impl CompileBits {
    fn of(config: &EngineConfig) -> CompileBits {
        CompileBits {
            typing: config.typing,
            relax_xpath: config.relax_xpath,
            containment_pruning: config.containment_pruning,
        }
    }
}

/// A structural hash of the compile-relevant key `(query, schema,
/// config)`: equal for every triple [`CompiledQuery::compatible`] accepts,
/// so a plan cache can place and key plans by it without rendering
/// anything. It is not stable across builds; a plan's stable name is
/// [`CompiledQuery::fingerprint`].
pub fn plan_hash(query: &Pattern, schema: Option<&Schema>, config: &EngineConfig) -> u64 {
    let mut h = DefaultHasher::new();
    (query, schema, CompileBits::of(config)).hash(&mut h);
    h.finish()
}

/// A stable hex fingerprint of the compile-relevant plan key — what a
/// `plan_cache` trace event reports. FNV-1a over the key's canonical
/// rendering: deterministic across builds and platforms (unlike
/// `DefaultHasher`), so cached-plan traces are reproducible byte for byte.
/// [`CompiledQuery::compile`] computes it once per plan.
pub fn plan_fingerprint(query: &Pattern, schema: Option<&Schema>, config: &EngineConfig) -> String {
    /// The rendering the fingerprint hashes; its bytes name plans in
    /// traces, so neither its fields nor its name may change. The fields
    /// are read only through `Debug`.
    #[allow(dead_code)]
    #[derive(Debug)]
    struct PlanKey {
        query: String,
        schema: Option<String>,
        typing: Typing,
        relax_xpath: bool,
        containment_pruning: bool,
    }
    let key = PlanKey {
        query: format!("{query:?}"),
        schema: schema.map(|s| format!("{s:?}")),
        typing: config.typing,
        relax_xpath: config.relax_xpath,
        containment_pruning: config.containment_pruning,
    };
    let text = format!("{key:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Everything the engine can precompute from a query before seeing any
/// document. See the module docs for the artifact inventory.
pub struct CompiledQuery {
    query: Pattern,
    schema: Option<Schema>,
    bits: CompileBits,
    fingerprint: String,
    /// Plan for the main pattern (the final evaluation).
    pub(crate) plan: QueryPlan,
    /// NFQs after relaxation/pruning, exactly as `run_nfq` would build.
    pub(crate) nfqs: Vec<Nfq>,
    pub(crate) nfq_pruned: usize,
    /// LPQs after pruning, exactly as `run_lpq` would build.
    pub(crate) lpqs: Vec<Lpq>,
    pub(crate) lpq_pruned: usize,
    /// Influence layers over `nfqs`.
    pub(crate) layers: Layers,
    /// Per-NFQ position language.
    pub(crate) pos_nfas: Vec<Nfa>,
    /// Shared §5 satisfiability verdicts for `(schema, query, typing)`.
    pub(crate) verdicts: SatVerdicts,
}

impl CompiledQuery {
    /// Compiles `query` under the given schema and engine configuration.
    /// Only the compile-relevant config bits enter the artifact (and its
    /// compatibility key): `typing`, `relax_xpath`, `containment_pruning`.
    pub fn compile(
        query: &Pattern,
        schema: Option<&Schema>,
        config: &EngineConfig,
    ) -> CompiledQuery {
        let (nfqs, nfq_pruned) = nfq_set(query, config);
        let (lpqs, lpq_pruned) = lpq_set(query, config);
        let layers = compute_layers(&nfqs);
        let pos_nfas = nfqs
            .iter()
            .map(|n| position_language(&n.lin, n.via))
            .collect();
        CompiledQuery {
            query: query.clone(),
            schema: schema.cloned(),
            bits: CompileBits::of(config),
            fingerprint: plan_fingerprint(query, schema, config),
            plan: QueryPlan::compile(query),
            nfqs,
            nfq_pruned,
            lpqs,
            lpq_pruned,
            layers,
            pos_nfas,
            verdicts: SatVerdicts::default(),
        }
    }

    /// Is this plan the compiled form of exactly `(query, schema, config)`?
    /// Compared structurally on the compile-relevant key — strategy,
    /// parallelism, budgets etc. don't invalidate a plan.
    pub fn compatible(
        &self,
        query: &Pattern,
        schema: Option<&Schema>,
        config: &EngineConfig,
    ) -> bool {
        self.bits == CompileBits::of(config)
            && self.query == *query
            && self.schema.as_ref() == schema
    }

    /// The plan's [`plan_fingerprint`], computed at compile time.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The compiled query.
    pub fn query(&self) -> &Pattern {
        &self.query
    }

    /// The main pattern's bindable plan.
    pub fn main_plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Number of NFQs surviving pruning.
    pub fn nfq_count(&self) -> usize {
        self.nfqs.len()
    }
}

// The builders below are the only constructors of each query artifact:
// `CompiledQuery::compile` calls all of them up front, while a run without
// a plan calls only those its strategy reads.

/// The NFQs of `query` (Figure 5), relaxed to XPath when configured
/// (§6.1) and pruned by containment (§4.1); also returns how many
/// pruning dropped.
pub(crate) fn nfq_set(query: &Pattern, config: &EngineConfig) -> (Vec<Nfq>, usize) {
    let mut nfqs = build_nfqs(query);
    if config.relax_xpath {
        nfqs = nfqs.iter().map(relax_nfq_to_xpath).collect();
    }
    if config.containment_pruning {
        prune_subsumed_nfqs(query, nfqs)
    } else {
        (nfqs, 0)
    }
}

/// The LPQs of `query` (§3.1), pruned by containment when configured;
/// also returns how many pruning dropped.
pub(crate) fn lpq_set(query: &Pattern, config: &EngineConfig) -> (Vec<Lpq>, usize) {
    let lpqs = build_lpqs(query);
    if config.containment_pruning {
        prune_subsumed_lpqs(lpqs)
    } else {
        (lpqs, 0)
    }
}

/// The schema and satisfiability mode §5's type refinement runs under,
/// or `None` when typing is off or no schema is attached.
pub(crate) fn typing_mode(typing: Typing, schema: Option<&Schema>) -> Option<(&Schema, SatMode)> {
    let mode = match typing {
        Typing::None => return None,
        Typing::Lenient => SatMode::Lenient,
        Typing::Exact => SatMode::Exact,
    };
    schema.map(|s| (s, mode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::parse_query;
    use axml_schema::figure2_schema;

    fn fig4() -> Pattern {
        parse_query(
            "/hotel[name=\"Best Western\"][rating=\"*****\"]\
             /nearby//restaurant[name=$X][address=$Y][rating=\"*****\"] -> $X,$Y",
        )
        .unwrap()
    }

    #[test]
    fn compile_matches_engine_construction() {
        let q = fig4();
        let config = EngineConfig::default();
        let plan = CompiledQuery::compile(&q, None, &config);
        // the engine's own construction, replicated
        let nfqs = build_nfqs(&q);
        let (kept, pruned) = crate::containment::prune_subsumed_nfqs(&q, nfqs);
        assert_eq!(plan.nfqs.len(), kept.len());
        assert_eq!(plan.nfq_pruned, pruned);
        assert_eq!(plan.pos_nfas.len(), plan.nfqs.len());
        assert_eq!(plan.layers.layers.len(), compute_layers(&kept).layers.len());
    }

    #[test]
    fn compatibility_is_keyed_on_compile_relevant_bits() {
        let q = fig4();
        let s = figure2_schema();
        let config = EngineConfig::default();
        let plan = CompiledQuery::compile(&q, Some(&s), &config);
        assert!(plan.compatible(&q, Some(&s), &config));
        // runtime-only knobs don't invalidate
        let mut runtime = config.clone();
        runtime.parallel = false;
        runtime.max_invocations = 7;
        assert!(plan.compatible(&q, Some(&s), &runtime));
        // compile-relevant knobs do
        let mut relaxed = config.clone();
        relaxed.relax_xpath = true;
        assert!(!plan.compatible(&q, Some(&s), &relaxed));
        let mut untyped = config.clone();
        untyped.typing = Typing::None;
        assert!(!plan.compatible(&q, Some(&s), &untyped));
        // a different schema or query invalidates
        assert!(!plan.compatible(&q, None, &config));
        let other = parse_query("/hotels/hotel/name").unwrap();
        assert!(!plan.compatible(&other, Some(&s), &config));
    }
}
