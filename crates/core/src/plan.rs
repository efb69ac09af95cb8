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
//! * per-NFQ label-level NFAs: the prefix-closed *affected* language
//!   driving incremental detection, and the *position* language the
//!   function-call guide is read with ([`position_language`]),
//! * a shared satisfiability-verdict store ([`SatVerdicts`]) so §5's
//!   typing refinement never reproves a `(function, query-node)` pair,
//!   across runs and sessions.
//!
//! Per document, the remaining setup is compiling against the document's
//! interned symbols: the main pattern's label tests
//! ([`QueryPlan::bind`]) and the label NFAs, which compile to symbol
//! automata. Results, traces and statistics are byte-identical to a run
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
use axml_query::{LinearPath, Pattern, QueryPlan};
use axml_schema::{Nfa, SatMode, Schema};

/// The compile-relevant slice of an [`EngineConfig`] plus the query and
/// schema identities, captured at compile time. A plan is consulted only
/// when the run's key matches — a mismatched plan is silently ignored
/// (the engine builds what the run reads itself), never misapplied.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PlanKey {
    query: String,
    schema: Option<String>,
    typing: Typing,
    relax_xpath: bool,
    containment_pruning: bool,
}

impl PlanKey {
    fn new(query: &Pattern, schema: Option<&Schema>, config: &EngineConfig) -> PlanKey {
        PlanKey {
            query: format!("{query:?}"),
            schema: schema.map(|s| format!("{s:?}")),
            typing: config.typing,
            relax_xpath: config.relax_xpath,
            containment_pruning: config.containment_pruning,
        }
    }
}

/// A stable hex fingerprint of the compile-relevant plan key — what a
/// plan cache indexes on, and what a `plan_cache` trace event reports.
/// FNV-1a over the key's canonical rendering: deterministic across
/// builds and platforms (unlike `DefaultHasher`), so cached-plan traces
/// are reproducible byte for byte.
pub fn plan_fingerprint(query: &Pattern, schema: Option<&Schema>, config: &EngineConfig) -> String {
    let key = PlanKey::new(query, schema, config);
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
    key: PlanKey,
    query: Pattern,
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
    /// Per-NFQ prefix-closed union of the pattern's path languages
    /// (incremental detection's "affected" test).
    pub(crate) affected_nfas: Vec<Nfa>,
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
        let affected_nfas = nfqs.iter().map(affected_language).collect();
        let pos_nfas = nfqs
            .iter()
            .map(|n| position_language(&n.lin, n.via))
            .collect();
        CompiledQuery {
            key: PlanKey::new(query, schema, config),
            query: query.clone(),
            plan: QueryPlan::compile(query),
            nfqs,
            nfq_pruned,
            lpqs,
            lpq_pruned,
            layers,
            affected_nfas,
            pos_nfas,
            verdicts: SatVerdicts::default(),
        }
    }

    /// Is this plan the compiled form of exactly `(query, schema, config)`?
    /// Compared on the compile-relevant key — strategy, parallelism,
    /// budgets etc. don't invalidate a plan.
    pub fn compatible(
        &self,
        query: &Pattern,
        schema: Option<&Schema>,
        config: &EngineConfig,
    ) -> bool {
        self.key == PlanKey::new(query, schema, config)
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

/// The prefix-closed union of the root-path languages of every node of
/// the NFQ's pattern — the language of positions whose splices can change
/// the NFQ's answer (incremental detection's "affected" test).
pub(crate) fn affected_language(nfq: &Nfq) -> Nfa {
    let parts: Vec<Nfa> = nfq
        .pattern
        .node_ids()
        .map(|id| Nfa::from_linear_path(&LinearPath::to_node(&nfq.pattern, id, true)))
        .collect();
    Nfa::union_of(&parts).prefix_closure()
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
        assert_eq!(plan.affected_nfas.len(), plan.nfqs.len());
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
