//! Pins the analysis a compiled plan pays once:
//! * a plan is compatible with `(query, schema, config)` exactly when the
//!   rendered key plans were once compared by is equal, and compatible
//!   triples share a `plan_hash`;
//! * containment pruning keeps every NFQ of the benchmark's and the
//!   examples' queries, in order, and prunes none.

use axml_core::{build_nfqs, plan_hash, prune_subsumed_nfqs, CompiledQuery, EngineConfig, Typing};
use axml_gen::auctions::auction_query;
use axml_gen::feeds::{price_feed, PriceFeedParams};
use axml_gen::scenario::{extended_schema, figure4_query};
use axml_query::{parse_query, render, FunMatch, PLabel, Pattern};
use axml_schema::{figure2_schema, parse_re, Schema};

/// The key plans were compared by before they kept it structurally: the
/// `Debug` renderings of the query and the schema, and the compile bits.
fn rendered_key(query: &Pattern, schema: Option<&Schema>, config: &EngineConfig) -> String {
    format!(
        "{query:?} {:?} {:?} {} {}",
        schema.map(|s| format!("{s:?}")),
        config.typing,
        config.relax_xpath,
        config.containment_pruning
    )
}

/// Figure 4's query, an equal copy, and copies differing from it in one
/// label, one edge or one result flag; an NFQ of it and a copy whose
/// function node lists services.
fn queries() -> Vec<Pattern> {
    let fig4 = |rating: &str, edge: &str, results: &str| {
        parse_query(&format!(
            "/hotel[name=\"Best Western\"][rating=\"{rating}\"]\
             /nearby{edge}restaurant[name=$X][address=$Y][rating=\"*****\"] -> {results}"
        ))
        .unwrap()
    };
    let nfq = build_nfqs(&figure4_query()).swap_remove(3);
    let mut refined = nfq.pattern.clone();
    refined.set_label(
        nfq.output,
        PLabel::Fun(FunMatch::OneOf(vec!["getRating".into()])),
    );
    vec![
        fig4("*****", "//", "$X,$Y"),
        fig4("*****", "//", "$X,$Y"),
        fig4("****", "//", "$X,$Y"),
        fig4("*****", "/", "$X,$Y"),
        fig4("*****", "//", "$X"),
        nfq.pattern,
        refined,
    ]
}

/// No schema, Figure 2's twice, Figure 2's with one content model changed,
/// and the generator's extension of it.
fn schemas() -> Vec<Option<Schema>> {
    let mut changed = figure2_schema();
    changed.add_element("museum", parse_re("name").unwrap());
    vec![
        None,
        Some(figure2_schema()),
        Some(figure2_schema()),
        Some(changed),
        Some(extended_schema()),
    ]
}

/// The default configuration, one differing only in runtime knobs, and
/// one differing in each compile bit.
fn configs() -> Vec<EngineConfig> {
    let base = EngineConfig::default();
    vec![
        base.clone(),
        EngineConfig {
            parallel: false,
            max_invocations: 7,
            ..base.clone()
        },
        EngineConfig {
            typing: Typing::Lenient,
            ..base.clone()
        },
        EngineConfig {
            typing: Typing::None,
            ..base.clone()
        },
        EngineConfig {
            relax_xpath: true,
            ..base.clone()
        },
        EngineConfig {
            containment_pruning: false,
            ..base
        },
    ]
}

#[test]
fn compatibility_is_equality_of_the_rendered_key() {
    let (queries, schemas, configs) = (queries(), schemas(), configs());
    let mut triples = Vec::new();
    for q in &queries {
        for s in &schemas {
            for c in &configs {
                triples.push((q, s.as_ref(), c, rendered_key(q, s.as_ref(), c)));
            }
        }
    }
    // one plan per query and schema, under the default configuration and
    // under each compile bit
    for &(q, s, c, ref key) in triples.iter().filter(|t| t.2.parallel) {
        let plan = CompiledQuery::compile(q, s, c);
        for &(q2, s2, c2, ref key2) in &triples {
            assert_eq!(
                plan.compatible(q2, s2, c2),
                key == key2,
                "{} vs {}",
                render(q),
                render(q2)
            );
            if key == key2 {
                assert_eq!(plan_hash(q, s, c), plan_hash(q2, s2, c2));
            }
        }
    }
}

#[test]
fn containment_pruning_keeps_every_nfq_of_the_workload_queries() {
    let mut queries = vec![
        figure4_query(),
        parse_query("//restaurant[rating=\"*****\"]/name/$N -> $N").unwrap(),
        parse_query("/hotels/hotel/name/$N -> $N").unwrap(),
        auction_query(),
    ];
    queries.extend(
        price_feed(&PriceFeedParams::default())
            .watchers
            .into_iter()
            .map(|(_, q)| q),
    );
    for q in queries {
        let all = build_nfqs(&q);
        let rendered: Vec<String> = all.iter().map(|n| render(&n.pattern)).collect();
        let (kept, pruned) = prune_subsumed_nfqs(&q, all);
        assert_eq!(pruned, 0, "{}", render(&q));
        let kept: Vec<String> = kept.iter().map(|n| render(&n.pattern)).collect();
        assert_eq!(kept, rendered, "{}", render(&q));
    }
}
